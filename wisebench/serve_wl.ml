(* The serve workloads: an in-process Serve.Server in its default
   configuration, driven through handle_line by two closed-loop client
   domains (build tools wait for each schedule before sending the
   next). The keys are every registry kernel under every fusion model.

   serve-hot: set-up warms the cache with every key; the clients then
   draw keys Zipf(1.1)-distributed over a fixed popularity ranking
   (registry order x model order), so every request is a cache hit:
   parse, SCoP build, fingerprint, lookup and envelope, no solver work.

   serve-cold: every request carries a size no earlier request used,
   which changes the fingerprint but not the solver work, so every
   request is a cold solve behind the daemon's global solver lock and
   the second client's wait shows up as latency. The stream visits all
   keys once per round, in a seeded order, with seeded sizes. *)

type key = { entry : Kernels.Registry.entry; model : string; name : string }

let keys ~smoke =
  let entries =
    if smoke then
      List.filter
        (fun (e : Kernels.Registry.entry) -> List.mem e.name [ "advect"; "gemver"; "dot" ])
        Kernels.Registry.all
    else Kernels.Registry.all
  in
  Array.of_list
    (List.concat_map
       (fun (e : Kernels.Registry.entry) ->
         List.map
           (fun m ->
             let model = Fusion.Model.name m in
             { entry = e; model; name = e.name ^ "/" ^ model })
           Fusion.Model.all)
       entries)

let request_line ~id ?size k =
  Printf.sprintf {|{"id":%d,"kernel":"%s","model":"%s"%s}|} id k.entry.name k.model
    (match size with Some n -> Printf.sprintf {|,"size":%d|} n | None -> "")

(* --- reading responses -------------------------------------------------- *)

(* The result payload is the envelope's last field; splitting there lets
   a hit be checked by comparing payload bytes, without parsing them. *)
let result_marker = {|, "result": |}

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let split resp =
  match find_sub resp result_marker with
  | None -> None
  | Some i ->
    let start = i + String.length result_marker in
    let head = String.sub resp 0 i ^ "}" in
    Option.map
      (fun h -> (h, String.sub resp start (String.length resp - start - 1)))
      (Result.to_option (Obs.Json.parse head))

let field j path = List.fold_left (fun acc f -> Option.bind acc (Obs.Json.member f)) (Some j) path
let str j path = Option.bind (field j path) Obs.Json.to_string_opt

let solver_zero head =
  List.for_all
    (fun c -> Option.bind (field head [ "serve"; c ]) Obs.Json.to_int_opt = Some 0)
    Serve.Protocol.solver_counter_names

(* [set_number s field v] replaces the integer after the first ["field": ]. *)
let set_number s field v =
  let marker = Printf.sprintf {|"%s": |} field in
  match find_sub s marker with
  | None -> s
  | Some i ->
    let start = i + String.length marker in
    let stop = ref start in
    while !stop < String.length s && s.[!stop] >= '0' && s.[!stop] <= '9' do
      incr stop
    done;
    String.sub s 0 start ^ string_of_int v ^ String.sub s !stop (String.length s - !stop)

(* The payload's "counters" mirror the daemon's serve_* tallies, which
   every request re-syncs from any domain; one landing during another
   request's cold solve leaks into that payload. The digest therefore
   covers the payload with those mirrors at 0, their value in a solve
   nothing else ran beside. *)
let serve_mirrors =
  [ "serve_requests"; "serve_cache_hits"; "serve_cache_misses"; "serve_cache_evictions";
    "serve_shed"; "serve_recovered"; "serve_breaker_trips"; "serve_breaker_rejects" ]

(* The digest of a payload: a cold payload at size n differs from the
   model-size payload only in its "size" field, which is put back. *)
let digest k payload =
  let p = List.fold_left (fun p f -> set_number p f 0) payload serve_mirrors in
  Digest.to_hex (Digest.string (set_number p "size" k.entry.model_size))

let check_golden golden k payload = Golden.check_serve golden k.name ~md5:(digest k payload)

(* --- one client's requests ------------------------------------------------ *)

type client = {
  mutable samples : (int * float) list;  (* untraced (input, ms) *)
  mutable traced : (int * float) list;
  mutable requests : int;
  mutable failed : int;
  mutable hits : int;
  mutable coalesced : int;
  mutable bytes : int;
  record_solves : bool;  (* traced runs: the daemon's solve time per miss *)
  mutable solve_ms : float;
  mutable solves : int;
  mutable traced_solve_ms : float;  (* the part inside traced requests *)
  mutable counters : (string * int) list list;  (* payload counters of noted solves *)
  mutable degraded : int;
  mutable replay : (key * int option * string * string) list;
  mutable span_us : float;  (* traced requests: their span trees' total *)
  mutable log : string list;
  acc : Layers.acc;
  export : Layers.export option;
}

let client ~export ~record_solves =
  { samples = []; traced = []; requests = 0; failed = 0; hits = 0; coalesced = 0;
    bytes = 0; record_solves; solve_ms = 0.0; solves = 0; traced_solve_ms = 0.0;
    counters = []; degraded = 0; replay = []; span_us = 0.0; log = [];
    acc = Layers.create ();
    export = (if export then Some (Layers.export ()) else None) }

let fail c fmt =
  Printf.ksprintf
    (fun s ->
      c.failed <- c.failed + 1;
      if List.length c.log < 20 then c.log <- s :: c.log)
    fmt

(* payload counters and degradation of a solve, for the layer counts *)
let note_solve c payload =
  match Obs.Json.parse payload with
  | Error _ -> ()
  | Ok p ->
    (match Obs.Json.member "counters" p with
    | Some (Obs.Json.Obj fs) ->
      c.counters <-
        List.filter_map (fun (n, v) -> Option.map (fun i -> (n, i)) (Obs.Json.to_int_opt v)) fs
        :: c.counters
    | _ -> ());
    if Obs.Json.member "degraded" p = Some (Obs.Json.Bool true) then c.degraded <- c.degraded + 1

let span name f = Obs.Trace.span ~cat:"bench" name f

(* traced requests kept per client for the replay of the front end *)
let replay_cap = 2000

(* One request: send, time, check. [expect] is "hit" or "miss";
   [verify] checks the payload of a correct answer. A traced request is
   recorded; its miss is charged the daemon's own solve time. *)
let request c srv ~t_run ~traced ~id ~input ~expect ~verify ?size k =
  let line = request_line ~id ?size k in
  let offset_us = (Run.now () -. t_run) *. 1e6 in
  let go () =
    let t0 = Run.now () in
    let resp = span "bench.request" (fun () -> Serve.Server.handle_line srv line) in
    (resp, Linalg.Clock.elapsed_ms ~since:t0)
  in
  let (resp, ms), events = if traced then Obs.Trace.with_recording go else (go (), []) in
  c.requests <- c.requests + 1;
  if traced then begin
    Obs.Trace.disable ();
    c.span_us <- c.span_us +. Layers.self_times c.acc events;
    Option.iter (fun x -> Layers.keep x (Layers.shift events ~by:offset_us)) c.export;
    c.traced <- (input, ms) :: c.traced
  end
  else c.samples <- (input, ms) :: c.samples;
  match Option.map (fun r -> (r, split r)) resp with
  | None -> fail c "%s: no response" k.name
  | Some (r, None) ->
    fail c "%s: not a schedule response: %s" k.name (String.sub r 0 (min 200 (String.length r)))
  | Some (r, Some (head, payload)) ->
    c.bytes <- c.bytes + String.length r;
    let cache = str head [ "cache" ] in
    if cache = Some "hit" then c.hits <- c.hits + 1;
    if field head [ "serve"; "coalesced" ] <> None then c.coalesced <- c.coalesced + 1;
    if str head [ "status" ] <> Some "ok" then fail c "%s: status not ok" k.name
    else if cache <> Some expect then
      fail c "%s: cache %s, expected %s" k.name (Option.value cache ~default:"?") expect
    else if expect = "hit" && not (solver_zero head) then
      fail c "%s: a hit reported solver work" k.name
    else begin
      (match verify payload with Ok () -> () | Error m -> fail c "%s: %s" k.name m);
      if traced && List.length c.replay < replay_cap then
        c.replay <- (k, size, line, r) :: c.replay;
      match (c.record_solves, expect, str head [ "key" ]) with
      | true, "miss", Some key ->
        Option.iter
          (fun (e : Serve.Cache.entry) ->
            c.solve_ms <- c.solve_ms +. e.Serve.Cache.solve_ms;
            c.solves <- c.solves + 1;
            if traced then c.traced_solve_ms <- c.traced_solve_ms +. e.Serve.Cache.solve_ms)
          (Serve.Cache.find_quiet (Serve.Server.cache srv) key)
      | _ -> ()
    end

(* Client 0 runs on the calling domain, client 1 on a second domain; the
   generator never uses more than the container's two cores. *)
let two_clients f =
  let d = Domain.spawn (fun () -> f 1) in
  let c0 = f 0 in
  let c1 = Domain.join d in
  [ c0; c1 ]

(* --- the traced run's layers ---------------------------------------------- *)

(* The daemon runs each solve under its own trace capture, so its stage
   spans never reach a client's sink; the stage observer hook the
   daemon's telemetry already uses reports the same exclusive times.
   This wraps it, forwarding every stage to the daemon's telemetry. *)
type stages = { m : Mutex.t; tbl : (string, float) Hashtbl.t }

let observe_stages srv =
  let st = { m = Mutex.create (); tbl = Hashtbl.create 8 } in
  let tel = Serve.Server.telemetry srv in
  Linalg.Counters.set_stage_observer (fun stage seconds ->
      Mutex.lock st.m;
      Hashtbl.replace st.tbl stage
        (seconds +. Option.value (Hashtbl.find_opt st.tbl stage) ~default:0.0);
      Mutex.unlock st.m;
      Serve.Telemetry.observe_stage tel ~stage ~seconds);
  st

let stage_ms st name = 1000.0 *. Option.value (Hashtbl.find_opt st.tbl name) ~default:0.0

(* After the clients stop, the benchmark calls the daemon's public
   front-end functions on recorded traced requests — same line, same
   response — so the request path splits into parse, SCoP build,
   fingerprint, cache lookup and rendering. Replaying afterwards keeps
   this work out of the closed loop the latencies come from. *)
let replay srv items =
  let go () =
    List.iter
      (fun (k, size, line, resp) ->
        ignore (span "bench.parse" (fun () -> Serve.Protocol.parse_request line));
        let n = Option.value size ~default:k.entry.model_size in
        let prog = span "bench.build" (fun () -> k.entry.program ~n ()) in
        let key =
          span "bench.fingerprint" (fun () ->
              Serve.Fingerprint.key ~model:(Fusion.Model.of_name k.model) prog)
        in
        ignore
          (span "bench.cache_find" (fun () ->
               Serve.Cache.find_quiet (Serve.Server.cache srv) key));
        match Obs.Json.parse resp with
        | Ok tree -> ignore (span "bench.render" (fun () -> Serve.Protocol.to_line tree))
        | Error _ -> ())
      items
  in
  let (), events = Obs.Trace.with_recording go in
  Obs.Trace.disable ();
  let acc = Layers.create () in
  ignore (Layers.self_times acc events);
  (acc, events)

let merged accs =
  let acc = Layers.create () in
  List.iter (fun a -> List.iter (fun (key, us) -> Layers.add acc key us) (Layers.bindings a)) accs;
  acc

let layers ~log ~srv ~stages ~warm ~clients =
  let all = warm :: clients in
  let sum f = List.fold_left (fun a c -> a + f c) 0 all in
  let sumf f = List.fold_left (fun a c -> a +. f c) 0.0 all in
  let traced = List.concat_map (fun c -> c.traced) clients in
  let untraced = List.concat_map (fun c -> c.samples) clients in
  let ops = float_of_int (max 1 (List.length traced)) in
  let items = List.concat_map (fun c -> c.replay) clients in
  let front, events = replay srv items in
  let nitems = float_of_int (max 1 (List.length items)) in
  let path = merged (List.map (fun c -> c.acc) clients) in
  let front_us name = Layers.get front ("bench", name) /. nitems in
  let build = front_us "bench.build" and render = front_us "bench.render" in
  let wall_us = List.fold_left (fun a (_, ms) -> a +. (ms *. 1000.0)) 0.0 traced /. ops in
  (* the solves in traced requests; serve-hot solves only while warming *)
  let client_solve_us =
    1000.0 *. List.fold_left (fun a c -> a +. c.traced_solve_ms) 0.0 clients /. ops
  in
  let solves = float_of_int (max 1 (sum (fun c -> c.solves))) in
  let stage s = stage_ms stages s /. solves in
  let stage_names = [ "dep-analysis"; "scheduling"; "verification"; "codegen"; "analysis" ] in
  let fusion_self =
    (sumf (fun c -> c.solve_ms) /. solves)
    -. List.fold_left (fun a s -> a +. stage s) 0.0 stage_names
  in
  List.iter
    (fun (label, v) -> log (Printf.sprintf "  %-40s %10.1f us/request" label v))
    [ ("handle_line outside serve.request", Layers.get path ("bench", "bench.request") /. ops);
      ("serve.request self: lock wait, lookup", Layers.get path ("serve", "serve.request") /. ops);
      ("serve.schedule: solve and payload", client_solve_us);
      ("replayed: parse", front_us "bench.parse");
      ("replayed: SCoP build", build);
      ("replayed: fingerprint", front_us "bench.fingerprint");
      ("replayed: cache lookup", front_us "bench.cache_find");
      ("replayed: render", render) ];
  (* requests last microseconds, so a GC pause at a span boundary
     dwarfs one request; the reconciliation is over their sum *)
  let span_us = List.fold_left (fun a c -> a +. c.span_us) 0.0 clients /. ops in
  log
    (Printf.sprintf "layer self-times reconcile with request wall: gap %.2f%% over %d requests"
       (100.0 *. Float.abs (span_us -. wall_us) /. wall_us)
       (List.length traced));
  let requests = float_of_int (max 1 (List.fold_left (fun a c -> a + c.requests) 0 clients)) in
  let sumc f = float_of_int (List.fold_left (fun a c -> a + f c) 0 clients) in
  ( events,
    [ ("kernels.build_us", build);
      ("deps.analyze_ms", stage "dep-analysis");
      ("pluto.scheduling_ms", stage "scheduling");
      ("pluto.verification_ms", stage "verification");
      ("codegen.scan_ms", stage "codegen");
      ("analysis.certify_ms", stage "analysis");
      ("fusion.self_ms", fusion_self);
      ("emit.render_us", render);
      ("op.other_us", wall_us -. build -. client_solve_us -. render);
      ( "obs.trace_overhead_pct",
        Run.overhead_pct ~untraced:(Array.of_list untraced) ~traced:(Array.of_list traced) ) ]
    @ Run.counter_layers (List.concat_map (fun c -> c.counters) all)
    @ [ ("deps.count", 0.0);
        ("fusion.degraded", float_of_int (sum (fun c -> c.degraded)));
        ("codegen.parallel_loops", 0.0);
        ("codegen.c_bytes_total", 0.0);
        ("machine.sim_cycles_gm", 0.0);
        ("machine.fig7_wisefuse_gm", 0.0);
        ("machine.l1_misses", 0.0);
        ("machine.l3_misses", 0.0);
        ("machine.barriers", 0.0);
        ("serve.hit_ratio", sumc (fun c -> c.hits) /. requests);
        ("serve.response_bytes", sumc (fun c -> c.bytes) /. requests);
        ("serve.coalesced", sumc (fun c -> c.coalesced)) ] )

let finish ~log ~trace_file ~srv ~stages ~setups ~busy_s ~t_run ~warm clients =
  let all = warm :: clients in
  List.iter (fun c -> List.iter log (List.rev c.log)) all;
  let layers =
    match stages with
    | None -> []
    | Some stages ->
      let offset_us = (Run.now () -. t_run) *. 1e6 in
      let events, layers = layers ~log ~srv ~stages ~warm ~clients in
      (* the set-up, client 0 and the replay share the calling domain:
         one timeline *)
      Option.iter
        (fun path ->
          let x = Layers.export () in
          List.iter
            (fun c -> Option.iter (fun y -> x.Layers.kept <- y.Layers.kept @ x.Layers.kept) c.export)
            all;
          Layers.keep x (Layers.shift events ~by:offset_us);
          Layers.write x path)
        trace_file;
      layers
  in
  Serve.Server.close srv;
  { Run.attempted = List.fold_left (fun a c -> a + c.requests) 0 clients;
    failed = List.fold_left (fun a c -> a + c.failed) 0 all;
    samples = Array.of_list (List.rev (List.concat_map (fun c -> c.samples) clients));
    busy_s; setup_s = Stats.median setups; layers }

(* --- serve-hot ------------------------------------------------------------ *)

(* hits per second one client sustains on the reference container *)
let hot_rate = 3000.0

(* client [id]'s key indices: Zipf(1.1) over the fixed ranking *)
let hot_stream ~seed ~nkeys ~n id =
  let draw = Rng.zipf ~s:1.1 nkeys and rng = Rng.make seed (10 + id) in
  Array.init n (fun _ -> draw rng)

let hot ~golden ~smoke ~seed ~seconds ~trace ~trace_file ~log =
  let keys = keys ~smoke in
  let per_client = if smoke then 200 else int_of_float (seconds *. hot_rate) in
  let warm = client ~export:trace ~record_solves:trace in
  let t_run = Run.now () in
  let verified = Array.make (Array.length keys) "" in
  (* set-up is 70 cold solves; it runs once *)
  let (srv, stages), setups =
    Run.setup ~times:1 (fun () ->
        let srv = Serve.Server.create () in
        let stages = if trace then Some (observe_stages srv) else None in
        Array.iteri
          (fun i k ->
            request warm srv ~t_run ~traced:trace ~id:i ~input:i ~expect:"miss"
              ~verify:(fun payload ->
                verified.(i) <- payload;
                note_solve warm payload;
                check_golden golden k payload)
              k)
          keys;
        (srv, stages))
  in
  let streams =
    Array.init 2 (hot_stream ~seed ~nkeys:(Array.length keys) ~n:per_client)
  in
  let t0 = Run.now () in
  let clients =
    two_clients (fun id ->
        let c = client ~export:(trace && id = 0) ~record_solves:false in
        for r = 0 to per_client - 1 do
          let i = streams.(id).(r) in
          request c srv ~t_run ~traced:(trace && r >= per_client / 2)
            ~id:((id * per_client) + r) ~input:i ~expect:"hit"
            ~verify:(fun payload ->
              if String.equal payload verified.(i) then Ok ()
              else Error "hit payload differs from the cold payload")
            keys.(i)
        done;
        c)
  in
  finish ~log ~trace_file ~srv ~stages ~setups ~busy_s:(Run.now () -. t0) ~t_run ~warm clients

(* --- serve-cold ----------------------------------------------------------- *)

(* one round of cold solves over every key, on the reference container *)
let cold_round_s = 6.0

(* (key index, size offset) of every request: each round a seeded
   permutation of the keys; request g gets size model_size + 1 +
   offset, the offsets a permutation, so no size recurs *)
let cold_stream ~seed ~nkeys ~rounds =
  let rng = Rng.make seed 3 in
  let order =
    Array.concat
      (List.init rounds (fun _ ->
           let a = Array.init nkeys Fun.id in
           Rng.shuffle rng a;
           a))
  in
  let offsets = Array.init (rounds * nkeys) Fun.id in
  Rng.shuffle rng offsets;
  Array.mapi (fun g k -> (k, offsets.(g))) order

let cold ~golden ~smoke ~seed ~seconds ~trace ~trace_file ~log =
  let keys = keys ~smoke in
  let nkeys = Array.length keys in
  let rounds =
    if smoke then 1 else max 1 (int_of_float (Float.round (seconds /. cold_round_s)))
  in
  let rounds = if trace then max 2 rounds else rounds in
  let total = rounds * nkeys in
  let stream = cold_stream ~seed ~nkeys ~rounds in
  let warm = client ~export:false ~record_solves:false in
  let t_run = Run.now () in
  let warm_key =
    match List.find_opt (fun i -> keys.(i).name = "swim/wisefuse") (List.init nkeys Fun.id) with
    | Some i -> i
    | None -> nkeys - 1
  in
  let (srv, stages), setups =
    Run.setup ~times:9 (fun () ->
        let srv = Serve.Server.create () in
        let k = keys.(warm_key) in
        (* a first solve in a fresh daemon pays heap growth a long-lived
           daemon has long paid; the warm-up request's size never recurs *)
        request warm srv ~t_run ~traced:false ~id:(-1) ~input:(-1) ~expect:"miss"
          ~verify:(check_golden golden k) k;
        (srv, if trace then Some (observe_stages srv) else None))
  in
  let next = Atomic.make 0 in
  let traced_from = if trace then total - nkeys else total in
  let t0 = Run.now () in
  let clients =
    two_clients (fun id ->
        let c = client ~export:(trace && id = 0) ~record_solves:trace in
        let rec loop () =
          let g = Atomic.fetch_and_add next 1 in
          if g < total then begin
            let i, offset = stream.(g) in
            let k = keys.(i) in
            let size = k.entry.model_size + 1 + offset in
            request c srv ~t_run ~traced:(g >= traced_from) ~id:g ~input:g ~expect:"miss"
              ~verify:(fun payload ->
                if g < nkeys then note_solve c payload;
                check_golden golden k payload)
              ~size k;
            loop ()
          end
        in
        loop ();
        c)
  in
  finish ~log ~trace_file ~srv ~stages ~setups ~busy_s:(Run.now () -. t0) ~t_run ~warm clients
