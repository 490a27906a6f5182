(* wiseserve: the long-lived scheduling daemon.

   Requests stream in as line-delimited JSON (stdio or a Unix socket),
   are keyed by Fingerprint and answered from the content-addressed
   Cache when possible. A miss runs the full certified pipeline —
   Fusion.Model.optimize under a nested trace recording (so the decision
   events become the response's explain chain), then wisecheck — and
   stores the rendered payload for every later request with the same
   content.

   A repeated request is answered without computing its key. Its
   validated fields (kernel, resolved size, model, engine, reductions)
   spell a request form, and the key is a pure function of the form,
   so the cache's form index answers it with one probe under one lock:
   no SCoP build, no Fingerprint.key. A form is indexed once its key is
   cached (a fingerprint hit, a coalesced hit or a store) and lives as
   long as the entry; degraded, failed and usage answers index nothing.
   An index hit is the same hit as a fingerprint hit: same envelope,
   same serve.request span and serve.cache-hit instant, same telemetry
   and access-log line.

   Every transport runs one line loop ([serve_lines]): stdio on the
   calling domain, so its answers come back in request order, and the
   socket server on each of config.domains workers, one connection at a
   time.

   Concurrency model (OCaml 5 domains): any number of domains may serve
   requests concurrently. Hits and protocol ops touch only the cache
   (which has its own lock) and atomics. A cold solve runs on the
   domain that received the request, inside a counter record of its own
   (Linalg.Counters.scoped, domain-local like the trace sink), and its
   pipeline run owns a Farkas memo (Fusion.Resilient.optimize), so
   solves of different keys run in parallel and each payload's
   counters — and the response's "serve" solver deltas — are exactly
   that solve's work: a hit provably performed zero LP pivots and zero
   B&B nodes, and a miss reports precisely its own. Requests for the
   SAME key coalesce: the first claims the key in the in-flight table,
   later ones wait for it to land, re-probe the cache, and leave with
   the first one's entry (a hit, never a duplicate solve). When the
   first solve stored nothing (degraded or failed), the next waiter
   solves the key itself.

   Hardening (wiseharden): every request solves under a fresh deadline
   budget (client "deadline_ms", server default/cap), so a pathological
   SCoP degrades down the resilience ladder instead of holding its key
   indefinitely; degraded results are served ("uncached") but never
   stored, keeping the cache byte-pure. Any exception that escapes the
   solve path is firewalled at the request boundary: the faulted
   solve's counter record and Farkas memo are dropped with it, its
   key is released, and the client gets a typed "internal" error.
   Repeated failures for one fingerprint trip a TTL'd circuit breaker
   (Breaker). Admission control sheds schedule requests with a typed
   "overloaded" error once the pending-work gauge passes
   config.max_pending; protocol ops (ping/stats/health/shutdown) are
   always served. Input lines longer than config.max_line_bytes are
   answered with a typed "oversized" error without buffering them.
   SIGTERM/SIGINT drain the socket server: in-flight requests finish,
   new work is rejected, the socket is unlinked, and the process exits
   0. *)

type config = {
  domains : int;  (* socket worker pool size *)
  cache_capacity : int;
  max_pending : int;  (* admission high-water mark (in-flight + queued) *)
  max_line_bytes : int;  (* longer request lines answer "oversized" *)
  default_deadline_ms : int option;  (* applied when the client sends none *)
  max_deadline_ms : int;  (* cap on client-requested deadlines *)
  breaker_threshold : int;  (* consecutive failures that open the breaker *)
  breaker_ttl_s : float;  (* how long an open breaker rejects *)
  metrics : bool;  (* mint live telemetry instruments (scrape via "metrics") *)
  trace_sample : int;
      (* record a span trace for every Nth request (0 = never); the
         envelope gains "trace_id" and a compact "trace" summary *)
  access_log : string option;  (* JSONL access log path (None = off) *)
}

let default_config =
  {
    domains = 1;
    cache_capacity = 512;
    max_pending = 64;
    max_line_bytes = 1 lsl 20;
    default_deadline_ms = Some 10_000;
    max_deadline_ms = 300_000;
    breaker_threshold = 3;
    breaker_ttl_s = 30.0;
    metrics = true;
    trace_sample = 0;
    access_log = None;
  }

type t = {
  config : config;
  cache : Cache.t;
  breaker : Breaker.t;
  solving : (string, unit) Hashtbl.t;  (* keys with a cold solve in flight *)
  flight : Mutex.t;  (* guards [solving] *)
  landed : Condition.t;  (* a key left [solving] *)
  stop : bool Atomic.t;
  requests : int Atomic.t;  (* answered lines; drives trace sampling *)
  inflight : int Atomic.t;  (* requests admitted and not yet answered *)
  queued : int Atomic.t;  (* accepted connections waiting for a worker *)
  shed : int Atomic.t;  (* schedule requests refused by admission control *)
  recovered : int Atomic.t;  (* exceptions caught by the solve firewall *)
  started : float;  (* Clock.now — uptime survives NTP steps *)
  telemetry : Telemetry.t;
  access : Access.t option;
  mutable on_stop : unit -> unit;
      (* wakes a blocked accept loop after a shutdown request *)
}

let create ?(config = default_config) () =
  let cache = Cache.create ~capacity:config.cache_capacity in
  let breaker =
    Breaker.create ~threshold:config.breaker_threshold
      ~ttl_s:config.breaker_ttl_s
  in
  let inflight = Atomic.make 0 in
  let queued = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let recovered = Atomic.make 0 in
  let started = Linalg.Clock.now () in
  let telemetry =
    Telemetry.create ~enabled:config.metrics
      {
        Telemetry.cache_stats = (fun () -> Cache.stats cache);
        breaker_open = (fun () -> Breaker.open_count breaker);
        breaker_trips = (fun () -> Breaker.trips breaker);
        breaker_rejects = (fun () -> Breaker.rejects breaker);
        inflight = (fun () -> Atomic.get inflight);
        queued = (fun () -> Atomic.get queued);
        shed_total = (fun () -> Atomic.get shed);
        recovered_total = (fun () -> Atomic.get recovered);
        uptime_s = (fun () -> Linalg.Clock.now () -. started);
      }
  in
  (* per-stage pipeline latency flows in from Counters.time; the hook
     is process-wide, so the most recently created server owns it
     (observe_stage is a no-op when its telemetry is disabled) *)
  if config.metrics then
    Linalg.Counters.set_stage_observer (fun stage seconds ->
        Telemetry.observe_stage telemetry ~stage ~seconds);
  {
    config;
    cache;
    breaker;
    solving = Hashtbl.create 16;
    flight = Mutex.create ();
    landed = Condition.create ();
    stop = Atomic.make false;
    requests = Atomic.make 0;
    inflight;
    queued;
    shed;
    recovered;
    started;
    telemetry;
    access = Option.map (fun path -> Access.open_ ~path) config.access_log;
    on_stop = (fun () -> ());
  }

let cache t = t.cache
let breaker t = t.breaker
let telemetry t = t.telemetry
let shed t = Atomic.get t.shed
let recovered t = Atomic.get t.recovered
let backlog t = Atomic.get t.inflight + Atomic.get t.queued

(* Flush and close the access log (idempotent; no-op without one).
   The serving loops call this on every exit path; tests driving
   [handle_line] directly call it before reading the file. *)
let close t = Option.iter Access.close t.access

(* --- building the cached result payload --------------------------------- *)

let row_json = function
  | Pluto.Sched.Hyp h ->
    Obs.Json.Obj
      [ ("hyp", Obs.Json.List (List.map (fun c -> Obs.Json.Int c) (Array.to_list h))) ]
  | Pluto.Sched.Beta b -> Obs.Json.Obj [ ("beta", Obs.Json.Int b) ]

let sched_json (prog : Scop.Program.t) (sched : Pluto.Sched.t) =
  Obs.Json.List
    (Array.to_list
       (Array.mapi
          (fun i rows ->
            Obs.Json.Obj
              [ ("stmt", Obs.Json.Str prog.Scop.Program.stmts.(i).Scop.Statement.name);
                ("rows", Obs.Json.List (List.map row_json rows)) ])
          sched))

let wisecheck_json prog (r : Analysis.Wisecheck.report) =
  Obs.Json.Obj
    [ ("errors", Obs.Json.Int r.Analysis.Wisecheck.errors);
      ("warnings", Obs.Json.Int r.Analysis.Wisecheck.warnings);
      ("infos", Obs.Json.Int r.Analysis.Wisecheck.infos);
      ("certified", Obs.Json.Bool (Analysis.Wisecheck.certified r));
      ( "findings",
        Obs.Json.List
          (List.map (Analysis.Finding.json prog) r.Analysis.Wisecheck.findings) ) ]

let explain_lines ex =
  let text = Format.asprintf "%a" Fusion.Explain.pp ex in
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> Obs.Json.Str l)

(* One cold solve, inside a fresh counter record (the run brings its
   own Farkas memo), so the payload (explain chain and counters
   included) is a pure function of the request content — which is what
   makes cached responses byte-identical to fresh solves — whatever
   else runs on other domains. A test's fault plan ([Linalg.Chaos])
   gets one draw per solve. Returns the payload, the engine that ran,
   whether the resilience ladder degraded (degraded payloads must not
   be cached: a deadline or an injected fault is request-local state,
   and caching its result would poison every later request for the
   same content), and the solve's counter snapshot. *)
let solve ?budget ~kernel ~model ~size ~engine ~reductions prog =
  Linalg.Counters.scoped @@ fun () ->
  let opt, events =
    Linalg.Chaos.with_fault budget (fun budget ->
        Obs.Trace.with_recording (fun () ->
            Fusion.Model.optimize ?budget ~engine ~reductions model prog))
  in
  let aprog, deps, sched = Fusion.Model.artifacts opt in
  let report = Analysis.Wisecheck.certify aprog deps sched opt.Fusion.Model.ast in
  let ex = { Fusion.Explain.kernel; model; outcome = opt; events } in
  let rung, degraded =
    match opt.Fusion.Model.resilience with
    | Some o -> (Fusion.Resilient.rung_name o.Fusion.Resilient.rung,
                 Fusion.Resilient.degraded o)
    | None -> ("structural", false)
  in
  (* requested choice plus the per-level solver that actually ran
     ("none" when the structural icc model served the request) *)
  let engine_used =
    match opt.Fusion.Model.scheduler with
    | Some res -> Pluto.Engine.kind_name res.Pluto.Scheduler.engine
    | None -> "none"
  in
  let counters = Linalg.Counters.all_counters () in
  let payload =
    Obs.Json.Obj
      [ ("kernel", Obs.Json.Str kernel);
        ("model", Obs.Json.Str (Fusion.Model.name model));
        ("size", Obs.Json.Int size);
        ("engine", Obs.Json.Str (Pluto.Engine.choice_name engine));
        ("engine_used", Obs.Json.Str engine_used);
        ("reductions", Obs.Json.Str (if reductions then "on" else "off"));
        ("rung", Obs.Json.Str rung);
        ("degraded", Obs.Json.Bool degraded);
        ("schedule", sched_json aprog sched);
        (* outermost fusion partition, in statement id order *)
        ( "partition",
          Obs.Json.List
            (List.map
               (fun p -> Obs.Json.Int p)
               (Array.to_list (Pluto.Sched.outer_partition sched))) );
        ("wisecheck", wisecheck_json aprog report);
        ("explain", Obs.Json.List (explain_lines ex));
        ( "counters",
          Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Int v)) counters) ) ]
  in
  (payload, engine_used, degraded, counters)

(* --- request handling ---------------------------------------------------- *)

let solver_deltas counters =
  List.map
    (fun n -> (n, Option.value (List.assoc_opt n counters) ~default:0))
    Protocol.solver_counter_names

(* Per-key coalescing: wait until no other request is solving [key],
   then claim it. The claimant re-probes the cache before solving, so a
   waiter whose key landed in the cache leaves with a coalesced hit. *)
let claim t key =
  Mutex.lock t.flight;
  while Hashtbl.mem t.solving key do
    Condition.wait t.landed t.flight
  done;
  Hashtbl.replace t.solving key ();
  Mutex.unlock t.flight

let release t key =
  Mutex.lock t.flight;
  Hashtbl.remove t.solving key;
  Condition.broadcast t.landed;
  Mutex.unlock t.flight

(* The deadline a request actually solves under: the client's ask,
   capped — or the server default when the client sent none. *)
let effective_deadline t requested =
  match requested with
  | Some d -> Some (min d t.config.max_deadline_ms)
  | None -> t.config.default_deadline_ms

let hit_response ~id ~key ~coalesced ~wall0 ?deadline_ms (e : Cache.entry) =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"serve" "serve.cache-hit"
      ~args:
        [ ("key", Obs.Json.Str key); ("coalesced", Obs.Json.Bool coalesced) ];
  let wall_us = Linalg.Clock.elapsed_us ~since:wall0 in
  Protocol.schedule_response ~id ~key ~cache_state:"hit"
    ~serve:
      (Protocol.serve_section ~coalesced ?deadline_ms ~wall_us
         ~solver:Protocol.zero_solver ())
    ~result:e.Cache.payload

(* A solve failure (typed diagnostic or firewalled exception) feeds the
   per-fingerprint breaker; crossing the threshold opens it. *)
let note_failure t key =
  if Breaker.record_failure t.breaker key && Obs.Trace.on () then
    Obs.Trace.instant ~cat:"serve" "serve.breaker"
      ~args:[ ("key", Obs.Json.Str key); ("state", Obs.Json.Str "open") ]

(* Recovery from an exception that escaped the solve path. The solve's
   half-bumped counters and partially filled Farkas memo need no repair:
   they belonged to the solve and were dropped on the way out, and
   [Obs.Trace.with_recording] restored the trace sink. What remains is
   accounting. *)
let recover t ~key exn =
  Atomic.incr t.recovered;
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"serve" "serve.recovered"
      ~args:
        [ ("key", Obs.Json.Str key);
          ("exn", Obs.Json.Str (Printexc.to_string exn)) ];
  note_failure t key

(* The request form: the fields a schedule request's key is a pure
   function of, spelled canonically (registry kernel name, resolved
   size, model name, engine choice name, reductions flag), so an absent
   field and its explicit default give one form and equal forms have
   equal keys. *)
let request_form ~kernel ~size ~model ~engine ~reductions =
  String.concat " "
    [ kernel; string_of_int size; Fusion.Model.name model;
      Pluto.Engine.choice_name engine; (if reductions then "on" else "off") ]

(* A request whose form and key both missed: unless the breaker is
   open, claim the key, re-probe (a waiter leaves with a coalesced hit)
   and solve. The form is indexed to the key's entry once it is cached:
   by the coalesced hit or by the store; a degraded or failed solve
   indexes nothing. *)
let solve_request t ~id ~wall0 ?deadline_ms ~form ~key ~kernel ~model ~size
    ~engine ~reductions prog =
  match Breaker.check t.breaker key with
  | Breaker.Open remaining ->
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"serve" "serve.breaker"
        ~args:[ ("key", Obs.Json.Str key); ("state", Obs.Json.Str "reject") ];
    Protocol.error_response ~id ~code:"breaker"
      ~message:
        (Printf.sprintf
           "circuit open for this fingerprint after repeated failures (retry \
            in %.1fs)"
           remaining)
  | Breaker.Closed ->
    claim t key;
    Fun.protect
      ~finally:(fun () -> release t key)
      (fun () ->
        (* double-checked: someone may have solved this key while we
           waited for it, or since our first probe *)
        match Cache.find t.cache ~form key with
        | Some e -> hit_response ~id ~key ~coalesced:true ~wall0 ?deadline_ms e
        | None -> (
          let budget =
            Option.map (fun ms -> Linalg.Budget.make ~ms ()) deadline_ms
          in
          match
            Obs.Trace.span ~cat:"serve" "serve.schedule" (fun () ->
                let t0 = Linalg.Clock.now () in
                let payload, engine_used, degraded, counters =
                  solve ?budget ~kernel ~model ~size ~engine ~reductions prog
                in
                ( payload,
                  engine_used,
                  degraded,
                  counters,
                  Linalg.Clock.elapsed_ms ~since:t0 ))
          with
          | payload, engine_used, degraded, counters, solve_ms ->
            Breaker.record_success t.breaker key;
            Telemetry.record_solve t.telemetry ~engine_used ~solve_ms;
            (* degraded = this request's deadline (or an injected fault)
               shaped the result; it is valid for this caller but must
               not be served to anyone else *)
            let payload, cache_state =
              if degraded then (payload, "uncached")
              else (Cache.add t.cache key ~form ~payload ~solve_ms, "miss")
            in
            Cache.count_miss t.cache;
            let solver = solver_deltas counters in
            let wall_us = Linalg.Clock.elapsed_us ~since:wall0 in
            Protocol.schedule_response ~id ~key ~cache_state
              ~serve:(Protocol.serve_section ?deadline_ms ~wall_us ~solver ())
              ~result:payload
          | exception Pluto.Diagnostics.Error d ->
            (* typed failure: deterministic for this content, so it
               feeds the breaker *)
            note_failure t key;
            Protocol.error_response ~id
              ~code:
                (Pluto.Diagnostics.phase_name d.Pluto.Diagnostics.phase
                ^ ":" ^ d.Pluto.Diagnostics.code)
              ~message:d.Pluto.Diagnostics.message
          | exception e ->
            (* the exception firewall: answer typed instead of dying;
               the key is released on the way out *)
            recover t ~key e;
            Protocol.error_response ~id ~code:"internal"
              ~message:(Printexc.to_string e)))

(* A repeated request is answered from the form index: no program
   build, no fingerprint, one cache lock. Otherwise the program is
   built and fingerprinted, and the key is looked up, then solved. *)
let handle_schedule t ~id ~kernel ~size ~model:model_name ~engine:engine_name
    ~reductions ~deadline_ms:requested_deadline =
  let wall0 = Linalg.Clock.now () in
  let usage message = Protocol.error_response ~id ~code:"usage" ~message in
  match Kernels.Registry.find kernel with
  | exception Not_found ->
    usage (Printf.sprintf "unknown kernel %S (see `wisefuse list')" kernel)
  | entry -> (
    match Fusion.Model.of_name model_name with
    | exception Not_found -> usage (Printf.sprintf "unknown model %S" model_name)
    | model -> (
      match Pluto.Engine.of_string engine_name with
      | None ->
        usage
          (Printf.sprintf
             "unknown engine %S (expected \"ilp\", \"lp-dfp\" or \"auto\")"
             engine_name)
      | Some engine -> (
        let n = Option.value size ~default:entry.Kernels.Registry.model_size in
        let form =
          request_form ~kernel:entry.Kernels.Registry.name ~size:n ~model
            ~engine ~reductions
        in
        let deadline_ms = effective_deadline t requested_deadline in
        let in_span key f =
          let args =
            if Obs.Trace.on () then
              [ ("kernel", Obs.Json.Str kernel);
                ("model", Obs.Json.Str model_name);
                ("engine", Obs.Json.Str (Pluto.Engine.choice_name engine));
                ("key", Obs.Json.Str key) ]
            else []
          in
          Obs.Trace.span ~cat:"serve" ~args "serve.request" f
        in
        match Cache.find_form t.cache form with
        | Some (key, e) ->
          in_span key (fun () ->
              hit_response ~id ~key ~coalesced:false ~wall0 ?deadline_ms e)
        | None -> (
          match entry.Kernels.Registry.program ~n () with
          | exception Invalid_argument msg ->
            usage (Printf.sprintf "cannot build %s at size %d: %s" kernel n msg)
          | prog ->
            let key = Fingerprint.key ~engine ~reductions ~model prog in
            in_span key (fun () ->
                match Cache.find t.cache ~form key with
                | Some e ->
                  hit_response ~id ~key ~coalesced:false ~wall0 ?deadline_ms e
                | None ->
                  solve_request t ~id ~wall0 ?deadline_ms ~form ~key ~kernel
                    ~model ~size:n ~engine ~reductions prog)))))

let handle_request t ({ id; op } : Protocol.request) =
  match op with
  | Protocol.Ping -> Protocol.pong_response ~id
  | Protocol.Stats ->
    Protocol.stats_response ~id
      ~uptime_s:(Linalg.Clock.now () -. t.started)
      ~requests:(Atomic.get t.requests) (Cache.stats t.cache)
  | Protocol.Health ->
    let draining = Atomic.get t.stop in
    let backlog = backlog t in
    Protocol.health_response ~id
      ~ready:((not draining) && backlog <= t.config.max_pending)
      ~draining ~backlog ~max_pending:t.config.max_pending
      ~breaker_open:(Breaker.open_count t.breaker)
      ~uptime_s:(Linalg.Clock.now () -. t.started)
      ~snapshot:(Telemetry.snapshot t.telemetry)
      (Cache.stats t.cache)
  | Protocol.Metrics ->
    Protocol.metrics_response ~id ~text:(Telemetry.exposition t.telemetry)
  | Protocol.Shutdown ->
    (* idempotent: a second shutdown (op or signal) during drain finds
       the flag already set and just answers again *)
    Atomic.set t.stop true;
    t.on_stop ();
    Protocol.shutdown_response ~id
  | Protocol.Schedule { kernel; size; model; engine; reductions; deadline_ms } ->
    handle_schedule t ~id ~kernel ~size ~model ~engine ~reductions ~deadline_ms

(* --- per-request observability ------------------------------------------- *)

(* splitmix64 finalizer over (start time, sequence number): unique,
   cheap, and stable within a run — no global RNG state to contend on *)
let gen_trace_id t n =
  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  Printf.sprintf "%016Lx"
    (mix
       (Int64.add
          (Int64.bits_of_float t.started)
          (Int64.mul (Int64.of_int (n + 1)) 0x9E3779B97F4A7C15L)))

(* Compact summary of a sampled request's recorded events: completed
   spans (begin/end pairs of any category) with their durations, plus
   the raw event count. *)
let trace_json events =
  let spans = ref [] in
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.ph with
      | Obs.Trace.B -> stack := (e.name, e.cat, e.ts) :: !stack
      | Obs.Trace.E -> (
        match !stack with
        | (name, cat, t0) :: rest when name = e.Obs.Trace.name ->
          stack := rest;
          spans :=
            Obs.Json.Obj
              [ ("name", Obs.Json.Str name);
                ("cat", Obs.Json.Str cat);
                ("us", Obs.Json.Float (Obs.Json.round2 (e.ts -. t0))) ]
            :: !spans
        | _ -> ())
      | Obs.Trace.I -> ())
    events;
  Obs.Json.Obj
    [ ("events", Obs.Json.Int (List.length events));
      ("spans", Obs.Json.List (List.rev !spans)) ]

(* The single exit point for every answered line: stamp the sampled
   trace into the envelope, feed telemetry (outcome counters, latency
   histograms) and the access log, render. The telemetry-off,
   no-access-log path costs two loads and a float subtraction. *)
let finish t ~wall0 ?trace response =
  let response =
    match trace with
    | None -> response
    | Some (tid, tr) -> (
      match response with
      | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (fields @ [ ("trace_id", Obs.Json.Str tid); ("trace", tr) ])
      | j -> j)
  in
  (if Telemetry.enabled t.telemetry || t.access <> None then begin
     let wall_us = Linalg.Clock.elapsed_us ~since:wall0 in
     let outcome = Telemetry.record_response t.telemetry ~wall_us response in
     match t.access with
     | None -> ()
     | Some a ->
       Access.log a
         (Access.render ~ts:(Unix.gettimeofday ()) ~wall_us
            ~trace_id:(Option.map fst trace) ~outcome response)
   end);
  Protocol.to_line response

(* One request line in, one response line out (no trailing newline).
   Blank lines are ignored. Never raises: anything unexpected becomes
   an "internal" error envelope so the stream stays alive. This is the
   admission boundary: oversized lines, drain rejections and overload
   shedding are all decided here, before any solver work. *)
let handle_line t line =
  let wall0 = Linalg.Clock.now () in
  if String.length line > t.config.max_line_bytes then begin
    Atomic.incr t.requests;
    Some
      (finish t ~wall0
         (Protocol.error_response ~id:Obs.Json.Null ~code:"oversized"
            ~message:
              (Printf.sprintf "request line exceeds %d bytes"
                 t.config.max_line_bytes)))
  end
  else
    let line = String.trim line in
    if line = "" then None
    else begin
      let n = Atomic.fetch_and_add t.requests 1 in
      Atomic.incr t.inflight;
      let sampled =
        t.config.trace_sample > 0 && n mod t.config.trace_sample = 0
      in
      Fun.protect
        ~finally:(fun () -> Atomic.decr t.inflight)
        (fun () ->
          let compute () =
            match Protocol.parse_request line with
            | Error pe ->
              Protocol.error_response ~id:pe.Protocol.err_id
                ~code:pe.Protocol.code ~message:pe.Protocol.message
            | Ok req -> (
              match req.Protocol.op with
              | Protocol.Schedule _ when Atomic.get t.stop ->
                Protocol.error_response ~id:req.Protocol.id ~code:"draining"
                  ~message:"server is draining; schedule request rejected"
              | Protocol.Schedule _ when backlog t > t.config.max_pending ->
                Atomic.incr t.shed;
                if Obs.Trace.on () then
                  Obs.Trace.instant ~cat:"serve" "serve.shed"
                    ~args:
                      [ ("backlog", Obs.Json.Int (backlog t));
                        ("max_pending", Obs.Json.Int t.config.max_pending) ];
                Protocol.error_response ~id:req.Protocol.id ~code:"overloaded"
                  ~message:
                    (Printf.sprintf
                       "backlog %d over high-water mark %d; retry later"
                       (backlog t) t.config.max_pending)
              | _ -> (
                try handle_request t req
                with e ->
                  (* last-resort firewall for non-solve surprises *)
                  Protocol.error_response ~id:req.Protocol.id ~code:"internal"
                    ~message:(Printexc.to_string e)))
          in
          let response, trace =
            if sampled then begin
              (* per-domain recording: concurrent sampled requests on
                 other domains record independently, and the nested
                 recording inside [solve] still composes *)
              let resp, events = Obs.Trace.with_recording compute in
              (resp, Some (gen_trace_id t n, trace_json events))
            end
            else (compute (), None)
          in
          Some (finish t ~wall0 ?trace response))
    end

(* --- serving loops ------------------------------------------------------- *)

(* Bounded line framing: one newline-terminated line, or [None] at
   EOF. A line longer than [max] bytes comes back cut at [max + 1]
   bytes, which [handle_line] answers "oversized"; the rest of it is
   consumed to its newline (or EOF) but never buffered, so hostile
   input cannot grow the heap and the stream stays framed. *)
let read_line_bounded ic ~max =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | '\n' -> Some (Buffer.contents buf)
    | c ->
      if Buffer.length buf <= max then Buffer.add_char buf c;
      go ()
  in
  go ()

(* The one request-line loop, for stdio and for every socket
   connection: answer each line in order and flush it; stop at EOF, or
   after a line once the stop flag is set (a shutdown op or a drain). *)
let serve_lines t ic oc =
  let rec loop () =
    match read_line_bounded ic ~max:t.config.max_line_bytes with
    | None -> ()
    | Some line ->
      Option.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n';
          flush oc)
        (handle_line t line);
      if not (Atomic.get t.stop) then loop ()
  in
  loop ()

(* Both SIGTERM and SIGINT mean: stop taking work, finish what is in
   flight, clean up, exit 0 — the contract the CI serve job asserts. A
   second signal during the drain is tolerated (logged, no raise, no
   re-entry). [immediate] is the stdio path, where the main thread sits
   in a blocking read that a flag cannot interrupt: there the handler
   cleans up and exits directly. *)
let install_drain_signals ?(immediate = false) t cleanup =
  let drain signal_name =
    if Atomic.compare_and_set t.stop false true then begin
      Printf.eprintf "wiseserve: caught %s, draining\n%!" signal_name;
      if immediate then begin
        cleanup ();
        exit 0
      end
      else t.on_stop ()
    end
    else Printf.eprintf "wiseserve: caught %s, already draining\n%!" signal_name
  in
  List.iter
    (fun (s, name) ->
      try Sys.set_signal s (Sys.Signal_handle (fun _ -> drain name))
      with Invalid_argument _ -> ())
    [ (Sys.sigterm, "SIGTERM"); (Sys.sigint, "SIGINT") ]

let serve_stdio t =
  install_drain_signals ~immediate:true t (fun () -> close t);
  serve_lines t stdin stdout;
  close t

(* Live connections, so a drain can unblock workers parked in a read:
   shutting down the receive side delivers EOF to the worker, which
   finishes its current response and closes. Entries are removed
   *before* the fd is closed — fd numbers are only recycled once no
   accept loop runs, and the registry never touches an fd after its
   removal. *)
module Conn_registry = struct
  type nonrec t = { tbl : (Unix.file_descr, unit) Hashtbl.t; m : Mutex.t }

  let create () = { tbl = Hashtbl.create 16; m = Mutex.create () }

  let locked r f =
    Mutex.lock r.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.m) f

  let add r fd = locked r (fun () -> Hashtbl.replace r.tbl fd ())
  let remove r fd = locked r (fun () -> Hashtbl.remove r.tbl fd)

  let shutdown_all r =
    locked r (fun () ->
        Hashtbl.iter
          (fun fd () ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          r.tbl)
end

(* One accepted connection, served to EOF by a single worker. *)
let handle_conn t registry fd =
  let oc = Unix.out_channel_of_descr fd in
  (try serve_lines t (Unix.in_channel_of_descr fd) oc
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  Conn_registry.remove registry fd;
  close_out_noerr oc

let serve_socket t ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    close t;
    (try Unix.close sock with Unix.Unix_error _ -> ());
    if Sys.file_exists path then try Unix.unlink path with Sys_error _ -> ()
  in
  install_drain_signals t cleanup;
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  (* a shutdown request (or signal) must also unblock the accept loop
     below: poke our own socket so accept returns and sees the stop
     flag *)
  t.on_stop <-
    (fun () ->
      try
        let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect s (Unix.ADDR_UNIX path);
        Unix.close s
      with Unix.Unix_error _ -> ());
  let registry = Conn_registry.create () in
  let conns = Bqueue.create () in
  let worker () =
    let rec loop () =
      match Bqueue.pop conns with
      | None -> ()
      | Some fd ->
        Atomic.decr t.queued;
        handle_conn t registry fd;
        loop ()
    in
    loop ()
  in
  let workers =
    List.init (max 1 t.config.domains) (fun _ -> Domain.spawn worker)
  in
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      match Unix.accept sock with
      | fd, _ ->
        Conn_registry.add registry fd;
        Atomic.incr t.queued;
        Bqueue.push conns fd;
        accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | exception Unix.Unix_error _ when Atomic.get t.stop -> ()
    end
  in
  accept_loop ();
  (* drain: no new connections are accepted; parked readers get EOF so
     workers finish their in-flight request and exit *)
  Conn_registry.shutdown_all registry;
  Bqueue.close conns;
  List.iter Domain.join workers;
  cleanup ()
