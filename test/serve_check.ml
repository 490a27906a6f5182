(* Standalone envelope validator for the CI serve job.

   Two modes:

     serve_check                 - validate daemon response lines on stdin
                                   (CI pipes the stdio daemon's output here)
     serve_check --connect PATH --requests FILE
                                 - connect to the daemon's Unix socket, send
                                   every request line from FILE, validate the
                                   responses

   Checks per line: valid UTF-8; well-formed JSON; "id" present;
   "status" ok|error;
   error envelopes carry {"error": {"code", "message"}}; ok schedule
   envelopes carry a 32-hex "key", "cache" hit|miss|uncached (uncached
   = a degraded solve the daemon refused to store), a "serve" section
   with wall_us, the five solver counters and — when the request ran
   under a deadline — deadline_ms/overrun_ms, and a complete "result"
   (schedule, partition, wisecheck, explain, counters) whose wisecheck
   verdict is certified. Cache hits must report zero solver work — the
   proof that cached schedules bypass the LP/B&B machinery. Health
   envelopes must carry the full readiness/backlog/breaker gauge set
   plus the telemetry "snapshot"; metrics envelopes must carry a
   Prometheus text exposition (deep syntax checks live in
   metrics_check). In --connect mode each response is also checked
   against its request: the "id" is the request's id as parsed, and a
   request that is not JSON gets a typed "parse" error. Exits 1 on any
   violation, with a per-class summary on stdout either way. *)

let violations = ref 0
let seen = ref 0
let hits = ref 0
let misses = ref 0
let uncached = ref 0
let errors = ref 0
let others = ref 0

let fail line fmt =
  Printf.ksprintf
    (fun msg ->
      incr violations;
      Printf.printf "BAD %s\n  in: %s\n" msg line)
    fmt

let solver_counters =
  [ "lp_solves"; "lp_pivots"; "dual_pivots"; "ilp_solves"; "bb_nodes" ]

let is_hex32 s =
  String.length s = 32
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let check_schedule line j =
  let member = Obs.Json.member in
  (match Option.bind (member "key" j) Obs.Json.to_string_opt with
  | Some k when is_hex32 k -> ()
  | Some k -> fail line "key %S is not 32 hex chars" k
  | None -> fail line "schedule response lacks a key");
  let cache = Option.bind (member "cache" j) Obs.Json.to_string_opt in
  (match cache with
  | Some "hit" -> incr hits
  | Some "miss" -> incr misses
  | Some "uncached" -> incr uncached
  | _ -> fail line {|"cache" must be "hit", "miss" or "uncached"|});
  (match member "serve" j with
  | None -> fail line {|schedule response lacks a "serve" section|}
  | Some serve ->
    (match Option.bind (member "wall_us" serve) Obs.Json.to_float_opt with
    | Some w when Float.is_finite w && w >= 0.0 -> ()
    | _ -> fail line "serve.wall_us missing or not a non-negative number");
    (* deadline accounting is optional but must be well-formed as a pair *)
    (match
       ( Option.bind (member "deadline_ms" serve) Obs.Json.to_int_opt,
         Option.bind (member "overrun_ms" serve) Obs.Json.to_float_opt )
     with
    | None, None -> ()
    | Some d, Some o when d > 0 && Float.is_finite o && o >= 0.0 -> ()
    | _ -> fail line "serve deadline_ms/overrun_ms malformed or unpaired");
    List.iter
      (fun c ->
        match Option.bind (member c serve) Obs.Json.to_int_opt with
        | Some n ->
          if cache = Some "hit" && n <> 0 then
            fail line "cache hit performed solver work: %s = %d" c n
        | None -> fail line "serve section lacks counter %s" c)
      solver_counters);
  match member "result" j with
  | None -> fail line {|schedule response lacks a "result"|}
  | Some result ->
    List.iter
      (fun f ->
        if member f result = None then fail line "result lacks %S" f)
      [ "kernel"; "model"; "size"; "engine"; "engine_used"; "rung";
        "schedule"; "partition"; "wisecheck"; "explain"; "counters" ];
    (match member "wisecheck" result with
    | None -> ()
    | Some wc -> (
      match Option.bind (member "certified" wc) Obs.Json.to_bool_opt with
      | Some true -> ()
      | Some false -> fail line "served schedule is not wisecheck-certified"
      | None -> fail line "wisecheck verdict lacks \"certified\""))

(* what the response to [request] must say: its id, or a parse error *)
let check_against line j request =
  let member = Obs.Json.member in
  match Obs.Json.parse request with
  | Error _ ->
    if Option.bind (member "error" j) (member "code") <> Some (Obs.Json.Str "parse")
    then fail line "a request that is not JSON must get a \"parse\" error"
  | Ok r ->
    let id = Option.value (member "id" r) ~default:Obs.Json.Null in
    if member "id" j <> Some id then
      fail line "id %s is not the request's %s"
        (Option.fold ~none:"(none)" ~some:Obs.Json.to_string (member "id" j))
        (Obs.Json.to_string id)

let check_line ?request line =
  let line = String.trim line in
  if line <> "" then begin
    incr seen;
    if not (String.is_valid_utf_8 line) then fail line "response is not valid UTF-8";
    match Obs.Json.parse line with
    | Error msg -> fail line "unparseable response: %s" msg
    | Ok j -> (
      let member = Obs.Json.member in
      if member "id" j = None then fail line {|response lacks an "id"|};
      Option.iter (check_against line j) request;
      match Option.bind (member "status" j) Obs.Json.to_string_opt with
      | Some "ok" ->
        if member "key" j <> None || member "result" j <> None then
          check_schedule line j
        else begin
          (match member "health" j with
          | None -> ()
          | Some h ->
            List.iter
              (fun f ->
                if member f h = None then fail line "health lacks %S" f)
              [ "ready"; "draining"; "backlog"; "max_pending"; "breaker_open";
                "uptime_s"; "cache_entries"; "snapshot" ];
            match member "snapshot" h with
            | None -> ()
            | Some snap ->
              List.iter
                (fun f ->
                  match Option.bind (member f snap) Obs.Json.to_int_opt with
                  | Some n when n >= 0 -> ()
                  | _ -> fail line "health snapshot lacks counter %S" f)
                [ "requests"; "hit"; "coalesced"; "cold"; "degraded";
                  "errors"; "ops" ]);
          (match member "metrics" j with
          | None -> ()
          | Some m ->
            (match Option.bind (member "format" m) Obs.Json.to_string_opt with
            | Some "prometheus-text-0.0.4" -> ()
            | _ -> fail line {|metrics lacks format "prometheus-text-0.0.4"|});
            match Option.bind (member "text" m) Obs.Json.to_string_opt with
            | Some t when String.length t > 0 && t.[0] = '#' -> ()
            | _ -> fail line "metrics.text missing or not an exposition");
          incr others (* pong / stats / health / metrics / bye *)
        end
      | Some "error" -> (
        incr errors;
        match member "error" j with
        | None -> fail line "error response lacks an \"error\" object"
        | Some e ->
          List.iter
            (fun f ->
              match Option.bind (member f e) Obs.Json.to_string_opt with
              | Some _ -> ()
              | None -> fail line "error object lacks %S" f)
            [ "code"; "message" ])
      | _ -> fail line {|"status" must be "ok" or "error"|})
  end

let validate_channel ic =
  try
    while true do
      check_line (input_line ic)
    done
  with End_of_file -> ()

(* socket-client mode: replay a request file against a live daemon *)
let connect_and_check path requests_file =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let reqs = open_in requests_file in
  let sent = ref 0 in
  (try
     while true do
       let line = String.trim (input_line reqs) in
       (* '#' comments let the request script document itself *)
       if line <> "" && line.[0] <> '#' then begin
         output_string oc line;
         output_char oc '\n';
         flush oc;
         incr sent;
         check_line ~request:line (input_line ic)
       end
     done
   with End_of_file -> ());
  close_in reqs;
  close_out_noerr oc;
  if !seen < !sent then begin
    incr violations;
    Printf.printf "BAD daemon answered %d of %d requests\n" !seen !sent
  end

let () =
  (match Array.to_list Sys.argv with
  | [ _ ] -> validate_channel stdin
  | [ _; "--connect"; path; "--requests"; file ] -> connect_and_check path file
  | _ ->
    prerr_endline
      "usage: serve_check [--connect SOCKET --requests FILE]  (or pipe \
       responses to stdin)";
    exit 2);
  Printf.printf
    "serve_check: %d responses (%d hits, %d misses, %d uncached, %d errors, \
     %d other), %d violations\n"
    !seen !hits !misses !uncached !errors !others !violations;
  if !seen = 0 then begin
    Printf.printf "serve_check: no responses seen\n";
    exit 1
  end;
  exit (if !violations = 0 then 0 else 1)
