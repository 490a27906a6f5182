(* Tests for the wiseserve daemon: structural fingerprints, the
   content-addressed LRU cache, and the server's envelope guarantees —
   above all that a warm response is byte-identical to the cold solve
   that populated it, for every kernel x model pair. *)

module Cache = Serve.Cache
module Chaos = Linalg.Chaos

let models = Fusion.Model.all
let model_names = List.map Fusion.Model.name models

let kernels =
  List.map (fun (e : Kernels.Registry.entry) -> e.Kernels.Registry.name)
    Kernels.Registry.all

(* small sizes keep the registry-wide cold solves inside a quick test
   budget; every registry builder accepts n = 8 *)
let test_size = 8

let request_line ?(size = test_size) ?(model = "wisefuse") ~id kernel =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("id", Obs.Json.Int id); ("kernel", Obs.Json.Str kernel);
         ("model", Obs.Json.Str model); ("size", Obs.Json.Int size) ])

let parse_response = function
  | None -> Alcotest.fail "daemon returned nothing for a request"
  | Some r -> (
    match Obs.Json.parse r with
    | Ok j -> (r, j)
    | Error m -> Alcotest.failf "unparseable response %s: %s" r m)

let respond t line = parse_response (Serve.Server.handle_line t line)

let field j name =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Obs.Json.to_string j)

let str_field j name =
  match Obs.Json.to_string_opt (field j name) with
  | Some s -> s
  | None -> Alcotest.failf "%S not a string" name

(* --- warm vs cold: byte identity over the whole registry ----------------- *)

let test_warm_cold_identical () =
  let t = Serve.Server.create () in
  let id = ref 0 in
  List.iter
    (fun kernel ->
      List.iter
        (fun model ->
          incr id;
          let line = request_line ~id:!id ~model kernel in
          let _, cold = respond t line in
          let _, warm = respond t line in
          Alcotest.(check string)
            (kernel ^ "/" ^ model ^ " cold is a miss")
            "miss" (str_field cold "cache");
          Alcotest.(check string)
            (kernel ^ "/" ^ model ^ " warm is a hit")
            "hit" (str_field warm "cache");
          Alcotest.(check string)
            (kernel ^ "/" ^ model ^ " same key")
            (str_field cold "key") (str_field warm "key");
          (* the contract: the cached "result" renders to exactly the
             bytes the cold solve produced *)
          Alcotest.(check string)
            (kernel ^ "/" ^ model ^ " byte-identical result")
            (Obs.Json.to_string (field cold "result"))
            (Obs.Json.to_string (field warm "result"));
          (* and the hit performed zero solver work *)
          let serve = field warm "serve" in
          List.iter
            (fun c ->
              match Obs.Json.to_int_opt (field serve c) with
              | Some 0 -> ()
              | v ->
                Alcotest.failf "%s/%s hit %s = %s" kernel model c
                  (match v with Some n -> string_of_int n | None -> "?"))
            [ "lp_solves"; "lp_pivots"; "dual_pivots"; "ilp_solves"; "bb_nodes" ])
        model_names)
    kernels;
  let s = Cache.stats (Serve.Server.cache t) in
  Alcotest.(check int) "one miss per pair"
    (List.length kernels * List.length models)
    s.Cache.misses;
  Alcotest.(check int) "one hit per pair"
    (List.length kernels * List.length models)
    s.Cache.hits

(* --- fingerprints --------------------------------------------------------- *)

let mini ~name ~arrays ~stmts () =
  (* a 2-statement kernel parameterized over its identifier names, for
     the alpha-invariance checks: b[i] = a[i]*2; c[i] = b[i]+1 *)
  let a_n, b_n, c_n = arrays in
  let s1_n, s2_n = stmts in
  let open Scop.Build in
  let ctx = create ~name ~params:[ ("N", 16) ] in
  let n = param ctx "N" in
  let a = array ctx a_n [ n ] in
  let b = array ctx b_n [ n ] in
  let c = array ctx c_n [ n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "i" ~lb ~ub (fun i -> assign ctx s1_n b [ i ] (a.%([ i ]) *: f 2.0));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx s2_n c [ i ] (b.%([ i ]) +: f 1.0));
  finish ctx

let test_fingerprint_stable () =
  let wf = Fusion.Model.Wisefuse in
  let p1 = Kernels.Gemver.program ~n:16 () in
  let p2 = Kernels.Gemver.program ~n:16 () in
  Alcotest.(check string) "same content, same key"
    (Serve.Fingerprint.key ~model:wf p1)
    (Serve.Fingerprint.key ~model:wf p2);
  (* MD5 hex: 32 lowercase hex chars *)
  let k = Serve.Fingerprint.key ~model:wf p1 in
  Alcotest.(check int) "key length" 32 (String.length k);
  String.iter
    (fun ch ->
      if not ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) then
        Alcotest.failf "non-hex key char %c" ch)
    k

let test_fingerprint_sensitivity () =
  let wf = Fusion.Model.Wisefuse in
  let p16 = Kernels.Gemver.program ~n:16 () in
  let p20 = Kernels.Gemver.program ~n:20 () in
  if Serve.Fingerprint.key ~model:wf p16 = Serve.Fingerprint.key ~model:wf p20
  then Alcotest.fail "size change must change the key";
  List.iter
    (fun m ->
      if m <> Fusion.Model.Wisefuse then
        if
          Serve.Fingerprint.key ~model:m p16
          = Serve.Fingerprint.key ~model:wf p16
        then
          Alcotest.failf "model %s shares wisefuse's key" (Fusion.Model.name m))
    models;
  if
    Serve.Fingerprint.key ~model:wf ~param_floor:2 p16
    = Serve.Fingerprint.key ~model:wf ~param_floor:4 p16
  then Alcotest.fail "param floor must be part of the key";
  (* the requested engine is part of the key, pairwise *)
  let ek e = Serve.Fingerprint.key ~engine:e ~model:wf p16 in
  let engine_keys =
    [ ek (Pluto.Engine.Fixed Pluto.Engine.Ilp);
      ek (Pluto.Engine.Fixed Pluto.Engine.Lp_dfp); ek Pluto.Engine.Auto ]
  in
  Alcotest.(check int) "engine choices have distinct keys" 3
    (List.length (List.sort_uniq compare engine_keys));
  Alcotest.(check string) "auto is the default engine"
    (Serve.Fingerprint.key ~model:wf p16)
    (ek Pluto.Engine.Auto);
  (* different kernels never collide *)
  let keys =
    List.map
      (fun k ->
        Serve.Fingerprint.key ~model:wf
          ((Kernels.Registry.find k).Kernels.Registry.program ~n:8 ()))
      kernels
  in
  Alcotest.(check int) "all kernels distinct"
    (List.length kernels)
    (List.length (List.sort_uniq compare keys))

let test_fingerprint_alpha_invariant () =
  (* names don't matter: the fingerprint is structural *)
  let p1 =
    mini ~name:"mini" ~arrays:("a", "b", "c") ~stmts:("S1", "S2") ()
  in
  let p2 =
    mini ~name:"other" ~arrays:("xs", "ys", "zs") ~stmts:("T9", "T10") ()
  in
  let fp = Serve.Fingerprint.key ~model:Fusion.Model.Wisefuse in
  Alcotest.(check string) "alpha-renamed programs share a fingerprint"
    (fp p1) (fp p2);
  (* ... but structure does: swapping which array the second statement
     reads changes the key *)
  let p3 =
    let open Scop.Build in
    let ctx = create ~name:"mini" ~params:[ ("N", 16) ] in
    let n = param ctx "N" in
    let a = array ctx "a" [ n ] in
    let b = array ctx "b" [ n ] in
    let c = array ctx "c" [ n ] in
    let lb = ci 0 and ub = n -~ ci 1 in
    loop ctx "i" ~lb ~ub (fun i -> assign ctx "S1" b [ i ] (a.%([ i ]) *: f 2.0));
    loop ctx "i" ~lb ~ub (fun i -> assign ctx "S2" c [ i ] (a.%([ i ]) +: f 1.0));
    finish ctx
  in
  if fp p1 = fp p3 then
    Alcotest.fail "changing a read target must change the fingerprint"

(* The key bytes themselves, pinned: MD5 over the newline-joined keys of
   every registry kernel x model at its model size and one above, with
   reductions off and on, under each engine choice (840 keys). The
   other fingerprint cases check stability, sensitivity and renaming;
   this one fails when a key changes, which would silently cold-start
   every running daemon's cache. A deliberate format change bumps
   [Fingerprint.version] and re-records the pin. *)
let keys_pin = "5111983ace5a7a4dbda6126e8868ffbc"

let test_fingerprint_pinned () =
  let engines = Pluto.Engine.[ Auto; Fixed Ilp; Fixed Lp_dfp ] in
  let keys =
    List.concat_map
      (fun (e : Kernels.Registry.entry) ->
        List.concat_map
          (fun n ->
            let prog = e.Kernels.Registry.program ~n () in
            List.concat_map
              (fun model ->
                List.concat_map
                  (fun reductions ->
                    List.map
                      (fun engine ->
                        Serve.Fingerprint.key ~engine ~reductions ~model prog)
                      engines)
                  [ false; true ])
              models)
          [ e.Kernels.Registry.model_size; e.Kernels.Registry.model_size + 1 ])
      Kernels.Registry.all
  in
  Alcotest.(check int) "key count"
    (List.length kernels * List.length models * 2 * 2 * 3)
    (List.length keys);
  Alcotest.(check string) "keys digest" keys_pin
    (Digest.to_hex (Digest.string (String.concat "\n" keys)))

(* --- the cache ------------------------------------------------------------ *)

let payload tag = Obs.Json.Obj [ ("tag", Obs.Json.Str tag) ]

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  ignore (Cache.add c "k1" ~payload:(payload "1") ~solve_ms:1.0);
  ignore (Cache.add c "k2" ~payload:(payload "2") ~solve_ms:1.0);
  (* touch k1 so k2 is the least recently used *)
  ignore (Cache.find_quiet c "k1");
  ignore (Cache.add c "k3" ~payload:(payload "3") ~solve_ms:1.0);
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "still at capacity" 2 s.Cache.entries;
  Alcotest.(check bool) "LRU entry (k2) gone" true
    (Cache.find_quiet c "k2" = None);
  Alcotest.(check bool) "recently-used k1 kept" true
    (Cache.find_quiet c "k1" <> None);
  Alcotest.(check bool) "new k3 present" true (Cache.find_quiet c "k3" <> None);
  (* re-adding an existing key is a no-op, not an eviction *)
  ignore (Cache.add c "k3" ~payload:(payload "3'") ~solve_ms:9.0);
  Alcotest.(check int) "no extra eviction" 1 (Cache.stats c).Cache.evictions;
  (match Cache.find_quiet c "k3" with
  | Some e ->
    Alcotest.(check string) "original payload kept" {|{"tag": "3"}|}
      (Obs.Json.to_string e.Cache.payload)
  | None -> Alcotest.fail "k3 vanished");
  match Cache.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

let test_cache_counting () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check bool) "absent" true (Cache.find_quiet c "absent" = None);
  Cache.count_miss c;
  let stored = Cache.add c "k" ~payload:(payload "k") ~solve_ms:1.0 in
  (* quiet: no tally; and the entry holds the very node the miss answers
     with, so a hit splices the bytes rendered once *)
  (match Cache.find_quiet c "k" with
  | Some e ->
    Alcotest.(check bool) "entry holds the node add returned" true
      (e.Cache.payload == stored)
  | None -> Alcotest.fail "k vanished");
  Cache.count_hit c;
  Cache.count_hit c;
  let s = Cache.stats c in
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Cache.misses;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions

(* --- concurrent serving under 4 domains ----------------------------------- *)

let test_concurrent_domains () =
  let config = { Serve.Server.default_config with domains = 4 } in
  let t = Serve.Server.create ~config () in
  let pop =
    [ ("gemver", "wisefuse"); ("gemver", "nofuse"); ("tce", "wisefuse");
      ("tce", "smartfuse") ]
  in
  let per_domain = 30 in
  (* workers only collect raw responses: Alcotest's reporter is not
     domain-safe, so every assertion runs here after the joins *)
  let worker d () =
    List.init per_domain (fun i ->
        let kernel, model = List.nth pop ((d + i) mod List.length pop) in
        Serve.Server.handle_line t (request_line ~id:((d * 1000) + i) ~model kernel))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let results =
    List.map
      (fun response ->
        let _, j = parse_response response in
        Alcotest.(check string) "ok" "ok" (str_field j "status");
        (str_field j "key", Obs.Json.to_string (field j "result")))
      (List.concat_map Domain.join domains)
  in
  (* every response for a given key rendered identical bytes *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (key, result) ->
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key result
      | Some prior ->
        if prior <> result then
          Alcotest.failf "key %s served two different payloads" key)
    results;
  Alcotest.(check int) "one entry per distinct request" (List.length pop)
    (Hashtbl.length tbl);
  let s = Cache.stats (Serve.Server.cache t) in
  Alcotest.(check int) "every request counted once" (4 * per_domain)
    (s.Cache.hits + s.Cache.misses);
  (* coalescing: concurrent first touches must not solve a key twice *)
  Alcotest.(check int) "misses = distinct keys" (List.length pop)
    s.Cache.misses

(* --- engine selection over the wire ---------------------------------------- *)

let engine_line ~id ~engine kernel =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("id", Obs.Json.Int id); ("kernel", Obs.Json.Str kernel);
         ("size", Obs.Json.Int test_size); ("engine", Obs.Json.Str engine) ])

let test_engine_requests () =
  let t = Serve.Server.create () in
  let _, ilp = respond t (engine_line ~id:1 ~engine:"ilp" "gemver") in
  let _, dfp = respond t (engine_line ~id:2 ~engine:"lp-dfp" "gemver") in
  Alcotest.(check string) "ilp request ok" "ok" (str_field ilp "status");
  Alcotest.(check string) "lp-dfp request ok" "ok" (str_field dfp "status");
  if str_field ilp "key" = str_field dfp "key" then
    Alcotest.fail "ilp and lp-dfp must have distinct cache keys";
  let result j = field j "result" in
  Alcotest.(check string) "payload echoes the requested engine" "lp-dfp"
    (str_field (result dfp) "engine");
  (* gemver is far below the auto threshold, so a fixed lp-dfp request
     is the only way this kernel runs the dfp engine *)
  Alcotest.(check string) "lp-dfp actually ran" "lp-dfp"
    (str_field (result dfp) "engine_used");
  Alcotest.(check string) "ilp actually ran" "ilp"
    (str_field (result ilp) "engine_used");
  (* per-engine warm hits are byte-identical to their own cold solve *)
  let _, warm = respond t (engine_line ~id:3 ~engine:"lp-dfp" "gemver") in
  Alcotest.(check string) "warm lp-dfp is a hit" "hit" (str_field warm "cache");
  Alcotest.(check string) "warm lp-dfp byte-identical"
    (Obs.Json.to_string (result dfp))
    (Obs.Json.to_string (result warm));
  (* an explicit auto engine shares the default entry *)
  let _, auto0 = respond t (request_line ~id:4 "gemver") in
  let _, auto1 = respond t (engine_line ~id:5 ~engine:"auto" "gemver") in
  Alcotest.(check string) "explicit auto = default key"
    (str_field auto0 "key") (str_field auto1 "key");
  Alcotest.(check string) "explicit auto hits" "hit" (str_field auto1 "cache");
  (* icc accepts (and ignores) the engine *)
  let _, icc =
    respond t
      {|{"id": 6, "kernel": "gemver", "size": 8, "model": "icc", "engine": "lp-dfp"}|}
  in
  Alcotest.(check string) "icc + engine ok" "ok" (str_field icc "status");
  Alcotest.(check string) "icc used no per-level engine" "none"
    (str_field (result icc) "engine_used");
  (* unknown engines are usage errors *)
  let _, bad = respond t (engine_line ~id:7 ~engine:"simplex" "gemver") in
  Alcotest.(check string) "unknown engine errors" "error"
    (str_field bad "status");
  Alcotest.(check string) "usage code" "usage"
    (str_field (field bad "error") "code")

(* --- protocol corners ------------------------------------------------------ *)

let test_protocol_envelopes () =
  let t = Serve.Server.create () in
  Alcotest.(check bool) "blank line ignored" true
    (Serve.Server.handle_line t "   " = None);
  let _, j = respond t {|{"id": 1, "op": "ping"}|} in
  Alcotest.(check string) "pong ok" "ok" (str_field j "status");
  let _, j = respond t {|{"id": 2, "kernel": "no-such-kernel"}|} in
  Alcotest.(check string) "unknown kernel errors" "error" (str_field j "status");
  Alcotest.(check string) "usage code" "usage"
    (str_field (field j "error") "code");
  let _, j = respond t {|{"id": 3, "op": "frobnicate"}|} in
  Alcotest.(check string) "unknown op errors" "error" (str_field j "status");
  let _, j = respond t {|this is not json|} in
  Alcotest.(check string) "parse error envelope" "error" (str_field j "status");
  Alcotest.(check string) "parse code" "parse"
    (str_field (field j "error") "code");
  (* raw bytes that are not UTF-8 are a parse error, never echoed into
     a response that is not UTF-8 itself *)
  let r, j = respond t "{\"id\": \"a\xffb\", \"op\": \"ping\"}" in
  Alcotest.(check string) "invalid UTF-8 is a parse error" "parse"
    (str_field (field j "error") "code");
  Alcotest.(check bool) "response is UTF-8" true (String.is_valid_utf_8 r);
  let _, j = respond t {|{"id": 4, "op": "stats"}|} in
  let stats = field j "stats" in
  Alcotest.(check bool) "stats has capacity" true
    (Obs.Json.to_int_opt (field stats "cache_capacity") = Some 512);
  let draining () =
    let _, j = respond t {|{"id": 6, "op": "health"}|} in
    Obs.Json.to_bool_opt (field (field j "health") "draining")
  in
  Alcotest.(check (option bool)) "not stopping yet" (Some false) (draining ());
  let _, j = respond t {|{"id": 5, "op": "shutdown"}|} in
  Alcotest.(check string) "shutdown ok" "ok" (str_field j "status");
  Alcotest.(check (option bool)) "stopping after shutdown" (Some true) (draining ())

(* --- hardening: firewall, breaker, deadlines, admission, drain ------------ *)

let sched_line ?(size = test_size) ?deadline ~id kernel =
  Obs.Json.to_string
    (Obs.Json.Obj
       (List.concat
          [ [ ("id", Obs.Json.Int id); ("kernel", Obs.Json.Str kernel);
              ("size", Obs.Json.Int size) ];
            (match deadline with
            | Some d -> [ ("deadline_ms", Obs.Json.Int d) ]
            | None -> []) ]))

let error_code j = str_field (field j "error") "code"

(* (a) a raising request releases its key and leaves no trace of its
   counters in the caller's; (b) the next cold solve is byte-identical
   to an unfaulted run *)
let test_firewall_recovery () =
  (* unfaulted reference: a fresh server, same config *)
  let reference =
    let t = Serve.Server.create () in
    let _, cold = respond t (sched_line ~id:1 "gemver") in
    Obs.Json.to_string (field cold "result")
  in
  let t = Serve.Server.create () in
  let faults = Chaos.queue [ Chaos.Raise ] in
  let before = Linalg.Counters.all_counters () in
  Chaos.arm ~faults (fun () ->
      let _, faulted = respond t (sched_line ~id:2 "gemver") in
      Alcotest.(check string) "faulted request errors" "error"
        (str_field faulted "status");
      Alcotest.(check string) "typed internal error" "internal"
        (error_code faulted);
      Alcotest.(check int) "one injected raise" 1 (Chaos.raises faults);
      (* the poison the fault planted in the counters must be gone *)
      List.iter2
        (fun (n, v) (_, v0) ->
          if v <> v0 then
            Alcotest.failf "counter %s = %d after recovery, %d before" n v v0)
        (Linalg.Counters.all_counters ()) before;
      Alcotest.(check int) "firewall counted the recovery" 1
        (Serve.Server.recovered t);
      (* key released + clean state: the next cold solve (same key, no
         fault armed) succeeds and is byte-identical to the unfaulted
         reference *)
      let _, cold = respond t (sched_line ~id:3 "gemver") in
      Alcotest.(check string) "next solve is a clean miss" "miss"
        (str_field cold "cache");
      Alcotest.(check string) "post-fault cold solve byte-identical"
        reference
        (Obs.Json.to_string (field cold "result"));
      let _, warm = respond t (sched_line ~id:4 "gemver") in
      Alcotest.(check string) "and caches normally" "hit"
        (str_field warm "cache"))

(* (c) the breaker opens after N failures and closes after the TTL *)
let test_breaker_opens_and_closes () =
  let config =
    { Serve.Server.default_config with breaker_threshold = 2; breaker_ttl_s = 0.2 }
  in
  let t = Serve.Server.create ~config () in
  Chaos.arm ~faults:(Chaos.queue [ Chaos.Raise; Chaos.Raise ]) (fun () ->
      let _, f1 = respond t (sched_line ~id:1 "gemver") in
      Alcotest.(check string) "first failure internal" "internal"
        (error_code f1);
      Alcotest.(check int) "breaker still closed" 0
        (Serve.Breaker.open_count (Serve.Server.breaker t));
      let _, f2 = respond t (sched_line ~id:2 "gemver") in
      Alcotest.(check string) "second failure internal" "internal"
        (error_code f2);
      Alcotest.(check int) "breaker open after threshold" 1
        (Serve.Breaker.open_count (Serve.Server.breaker t));
      (* while open: typed rejection, no solve attempted (the chaos
         queue is empty — a solve would succeed and betray itself) *)
      let _, rej = respond t (sched_line ~id:3 "gemver") in
      Alcotest.(check string) "open breaker rejects typed" "breaker"
        (error_code rej);
      Alcotest.(check int) "reject counted" 1
        (Serve.Breaker.rejects (Serve.Server.breaker t));
      Alcotest.(check bool) "trip counted" true
        (Serve.Breaker.trips (Serve.Server.breaker t) >= 1);
      (* a different fingerprint is unaffected *)
      let _, other = respond t (sched_line ~id:4 "tce") in
      Alcotest.(check string) "other keys still served" "ok"
        (str_field other "status");
      (* after the TTL the half-open probe goes through and closes it *)
      Unix.sleepf 0.25;
      let _, probe = respond t (sched_line ~id:5 "gemver") in
      Alcotest.(check string) "half-open probe solves" "ok"
        (str_field probe "status");
      Alcotest.(check string) "probe was a real miss" "miss"
        (str_field probe "cache");
      Alcotest.(check int) "breaker closed by success" 0
        (Serve.Breaker.open_count (Serve.Server.breaker t)))

(* a slow solve under a tight deadline degrades down the ladder and is
   served but never cached *)
let test_deadline_degrades_uncached () =
  Chaos.arm ~faults:(Chaos.queue [ Chaos.Slow 60 ]) (fun () ->
      let t = Serve.Server.create () in
      let _, slow = respond t (sched_line ~id:1 ~deadline:10 "gemver") in
      Alcotest.(check string) "slow request still ok" "ok"
        (str_field slow "status");
      let result = field slow "result" in
      Alcotest.(check bool) "degraded result" true
        (Obs.Json.to_bool_opt (field result "degraded") = Some true);
      Alcotest.(check bool) "not the primary rung" true
        (str_field result "rung" <> "primary");
      Alcotest.(check string) "degraded results are not cached" "uncached"
        (str_field slow "cache");
      let serve = field slow "serve" in
      Alcotest.(check bool) "deadline echoed" true
        (Obs.Json.to_int_opt (field serve "deadline_ms") = Some 10);
      (match Obs.Json.to_float_opt (field serve "overrun_ms") with
      | Some o when o > 0.0 -> ()
      | v ->
        Alcotest.failf "expected positive overrun, got %s"
          (match v with Some f -> string_of_float f | None -> "?"));
      (* the key was never poisoned: the next request solves clean at
         full quality and only THAT result is cached *)
      let _, clean = respond t (sched_line ~id:2 ~deadline:10_000 "gemver") in
      Alcotest.(check string) "clean re-solve is a miss" "miss"
        (str_field clean "cache");
      Alcotest.(check bool) "clean result undegraded" true
        (Obs.Json.to_bool_opt (field (field clean "result") "degraded")
        = Some false);
      let _, warm = respond t (sched_line ~id:3 "gemver") in
      Alcotest.(check string) "then hits" "hit" (str_field warm "cache");
      Alcotest.(check string) "warm bytes = clean cold bytes"
        (Obs.Json.to_string (field clean "result"))
        (Obs.Json.to_string (field warm "result")))

(* forced exhaustion degrades to the identity rung, typed, not cached *)
let test_exhaustion_degrades () =
  let faults = Chaos.queue [ Chaos.Exhaust ] in
  Chaos.arm ~faults (fun () ->
      let t = Serve.Server.create () in
      let _, j = respond t (sched_line ~id:1 "tce") in
      Alcotest.(check string) "exhausted request ok" "ok" (str_field j "status");
      Alcotest.(check string) "identity rung" "identity"
        (str_field (field j "result") "rung");
      Alcotest.(check string) "uncached" "uncached" (str_field j "cache");
      Alcotest.(check int) "one injected exhaust" 1 (Chaos.exhausts faults))

(* A cold solve feeds wisefuse_stage_duration_us from the stage
   observer, one observation per pipeline stage it ran; a hit runs no
   stage and adds none. *)
let test_stage_metrics () =
  let t = Serve.Server.create () in
  let stages =
    [ "dep-analysis"; "scheduling"; "verification"; "codegen"; "analysis" ]
  in
  let counts () =
    let text = Serve.Telemetry.exposition (Serve.Server.telemetry t) in
    let lines = String.split_on_char '\n' text in
    List.map
      (fun stage ->
        let prefix =
          Printf.sprintf {|wisefuse_stage_duration_us_count{stage="%s"} |} stage
        in
        let n = String.length prefix in
        match List.find_opt (String.starts_with ~prefix) lines with
        | Some l -> int_of_string (String.sub l n (String.length l - n))
        | None -> 0)
      stages
  in
  ignore (respond t (sched_line ~id:1 "gemver"));
  let cold = counts () in
  List.iter2
    (fun stage n -> if n = 0 then Alcotest.failf "a cold solve observed no %s stage" stage)
    stages cold;
  let _, hit = respond t (sched_line ~id:2 "gemver") in
  Alcotest.(check string) "second request is a hit" "hit" (str_field hit "cache");
  Alcotest.(check (list int)) "a hit observes no stage" cold (counts ())

let test_oversized_line () =
  let t = Serve.Server.create () in
  (* a 10 MiB line answers a typed error without being processed; the
     serving loop's framing is driven end to end by test_cli_help *)
  let huge = String.make (10 * 1024 * 1024) 'x' in
  match Serve.Server.handle_line t huge with
  | None -> Alcotest.fail "oversized line must be answered"
  | Some r -> (
    match Obs.Json.parse r with
    | Ok j ->
      Alcotest.(check string) "typed oversized error" "oversized" (error_code j)
    | Error m -> Alcotest.failf "unparseable oversized envelope: %s" m)

let test_admission_shedding () =
  (* max_pending 0: every schedule request finds the gauge (which
     includes itself) over the mark — deterministic shedding *)
  let config = { Serve.Server.default_config with max_pending = 0 } in
  let t = Serve.Server.create ~config () in
  let _, shed = respond t (sched_line ~id:1 "gemver") in
  Alcotest.(check string) "typed overloaded" "overloaded" (error_code shed);
  Alcotest.(check int) "shed counted" 1 (Serve.Server.shed t);
  (* protocol ops are never shed *)
  let _, ping = respond t {|{"id": 2, "op": "ping"}|} in
  Alcotest.(check string) "ping served under overload" "ok"
    (str_field ping "status");
  let _, health = respond t {|{"id": 3, "op": "health"}|} in
  let h = field health "health" in
  Alcotest.(check bool) "not ready while overloaded" true
    (Obs.Json.to_bool_opt (field h "ready") = Some false);
  Alcotest.(check bool) "but not draining" true
    (Obs.Json.to_bool_opt (field h "draining") = Some false)

let test_health_and_idempotent_shutdown () =
  let t = Serve.Server.create () in
  let _, health = respond t {|{"id": 1, "op": "health"}|} in
  Alcotest.(check string) "health ok" "ok" (str_field health "status");
  let h = field health "health" in
  Alcotest.(check bool) "ready" true
    (Obs.Json.to_bool_opt (field h "ready") = Some true);
  Alcotest.(check bool) "no open breakers" true
    (Obs.Json.to_int_opt (field h "breaker_open") = Some 0);
  Alcotest.(check bool) "uptime is non-negative" true
    (match Obs.Json.to_float_opt (field h "uptime_s") with
    | Some u -> u >= 0.0
    | None -> false);
  let _, bye1 = respond t {|{"id": 2, "op": "shutdown"}|} in
  Alcotest.(check string) "shutdown ok" "ok" (str_field bye1 "status");
  (* a second shutdown during the drain is answered, not raised *)
  let _, bye2 = respond t {|{"id": 3, "op": "shutdown"}|} in
  Alcotest.(check string) "second shutdown tolerated" "ok"
    (str_field bye2 "status");
  (* new schedule work is rejected while draining, typed *)
  let _, rej = respond t (sched_line ~id:4 "gemver") in
  Alcotest.(check string) "draining rejection" "draining" (error_code rej);
  (* health keeps answering and reports the drain *)
  let _, health = respond t {|{"id": 5, "op": "health"}|} in
  let h = field health "health" in
  Alcotest.(check bool) "draining reported" true
    (Obs.Json.to_bool_opt (field h "draining") = Some true);
  Alcotest.(check bool) "not ready while draining" true
    (Obs.Json.to_bool_opt (field h "ready") = Some false)

let test_deadline_validation () =
  let t = Serve.Server.create () in
  let _, bad = respond t {|{"id": 1, "kernel": "gemver", "deadline_ms": -5}|} in
  Alcotest.(check string) "negative deadline is a usage error" "usage"
    (error_code bad);
  let _, bad = respond t {|{"id": 2, "kernel": "gemver", "deadline_ms": "x"}|} in
  Alcotest.(check string) "non-integer deadline is a usage error" "usage"
    (error_code bad)

(* --- telemetry: metrics op, snapshot, sampling, access log ---------------- *)

let test_metrics_op () =
  let t = Serve.Server.create () in
  let tel = Serve.Server.telemetry t in
  ignore (respond t {|{"id": 1, "op": "ping"}|});
  ignore (respond t (sched_line ~id:2 "gemver")); (* cold *)
  ignore (respond t (sched_line ~id:3 "gemver")); (* hit *)
  ignore (respond t {|garbage|}); (* parse error *)
  Alcotest.(check int) "requests counted" 4
    (Serve.Telemetry.requests_total tel);
  Alcotest.(check int) "one hit" 1 (Serve.Telemetry.outcome_total tel "hit");
  Alcotest.(check int) "one cold" 1 (Serve.Telemetry.outcome_total tel "cold");
  Alcotest.(check int) "one parse" 1
    (Serve.Telemetry.outcome_total tel "parse");
  Alcotest.(check int) "one ping" 1 (Serve.Telemetry.op_total tel "ping");
  (* the scrape op: a valid envelope carrying the exposition text,
     rendered before the scrape itself is recorded *)
  let _, j = respond t {|{"id": 5, "op": "metrics"}|} in
  Alcotest.(check string) "metrics ok" "ok" (str_field j "status");
  let m = field j "metrics" in
  Alcotest.(check string) "format" "prometheus-text-0.0.4"
    (str_field m "format");
  let text = str_field m "text" in
  let contains needle =
    let n = String.length needle and l = String.length text in
    let rec go i =
      i + n <= l && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "requests_total sample" true
    (contains "wisefuse_serve_requests_total 4");
  Alcotest.(check bool) "hit outcome sample" true
    (contains {|wisefuse_serve_outcomes_total{outcome="hit"} 1|});
  Alcotest.(check bool) "hit duration histogram" true
    (contains {|wisefuse_request_duration_us_count{class="hit"} 1|});
  Alcotest.(check bool) "cache counters ride along" true
    (contains "wisefuse_cache_hits_total 1");
  Alcotest.(check int) "scrape recorded as an op" 1
    (Serve.Telemetry.op_total tel "metrics");
  (* requests_total == sum outcomes + sum ops, the wire invariant *)
  let sum l = List.fold_left (fun a (_, v) -> a + v) 0 l in
  Alcotest.(check int) "totals reconcile"
    (Serve.Telemetry.requests_total tel)
    (sum (Serve.Telemetry.outcome_totals tel)
    + sum (Serve.Telemetry.op_totals tel));
  (* health carries the compact snapshot *)
  let _, health = respond t {|{"id": 6, "op": "health"}|} in
  let snap = field (field health "health") "snapshot" in
  Alcotest.(check bool) "snapshot.requests" true
    (Obs.Json.to_int_opt (field snap "requests") = Some 5);
  Alcotest.(check bool) "snapshot.hit" true
    (Obs.Json.to_int_opt (field snap "hit") = Some 1);
  (* a metrics-disabled server answers the op with a comment line and
     counts nothing *)
  let off =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with metrics = false }
      ()
  in
  ignore (respond off (sched_line ~id:1 "gemver"));
  let _, j = respond off {|{"id": 2, "op": "metrics"}|} in
  let text = str_field (field j "metrics") "text" in
  Alcotest.(check bool) "disabled exposition is a comment" true
    (String.length text > 0 && text.[0] = '#');
  Alcotest.(check int) "disabled records nothing" 0
    (Serve.Telemetry.requests_total (Serve.Server.telemetry off))

let is_hex s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let test_trace_sampling () =
  (* every 2nd request samples a span trace; the result payload stays
     byte-identical to an unsampled server's *)
  let reference =
    let t = Serve.Server.create () in
    let _, cold = respond t (sched_line ~id:1 "gemver") in
    Obs.Json.to_string (field cold "result")
  in
  let t =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with trace_sample = 2 }
      ()
  in
  let _, first = respond t (sched_line ~id:1 "gemver") in
  Alcotest.(check string) "sampled result byte-identical" reference
    (Obs.Json.to_string (field first "result"));
  let tid = str_field first "trace_id" in
  Alcotest.(check bool) "trace_id is 16 hex chars" true
    (String.length tid = 16 && is_hex tid);
  let trace = field first "trace" in
  (match Obs.Json.to_int_opt (field trace "events") with
  | Some n when n > 0 -> ()
  | _ -> Alcotest.fail "sampled trace has no events");
  (match Obs.Json.to_list_opt (field trace "spans") with
  | Some (_ :: _ as spans) ->
    List.iter
      (fun s ->
        ignore (field s "name");
        ignore (field s "cat");
        ignore (field s "us"))
      spans
  | _ -> Alcotest.fail "sampled trace has no spans");
  (* the sampler must not leave the domain's tracer running *)
  Alcotest.(check bool) "tracer off after sampled request" false
    (Obs.Trace.on ());
  (* second request (n = 1) is unsampled: no trace fields, same bytes *)
  let _, second = respond t (sched_line ~id:2 "gemver") in
  Alcotest.(check bool) "unsampled has no trace_id" true
    (Obs.Json.member "trace_id" second = None);
  Alcotest.(check string) "warm hit result identical" reference
    (Obs.Json.to_string (field second "result"));
  (* third (n = 2) samples again — now a cache hit with its own id *)
  let _, third = respond t (sched_line ~id:3 "gemver") in
  let tid3 = str_field third "trace_id" in
  Alcotest.(check bool) "distinct trace ids" true (tid <> tid3)

let test_access_log () =
  let path = Filename.temp_file "wisefuse_access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t =
        Serve.Server.create
          ~config:
            { Serve.Server.default_config with access_log = Some path }
          ()
      in
      ignore (respond t (sched_line ~id:1 "gemver")); (* cold *)
      ignore (respond t (sched_line ~id:2 "gemver")); (* hit *)
      ignore (respond t {|{"id": 3, "op": "ping"}|});
      ignore (respond t {|garbage|});
      Serve.Server.close t;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      Alcotest.(check int) "one line per answered request" 4
        (List.length lines);
      let outcomes =
        List.map
          (fun line ->
            match Obs.Json.parse line with
            | Error m -> Alcotest.failf "access line unparseable: %s" m
            | Ok j ->
              (* every line carries the core fields *)
              ignore (field j "ts");
              ignore (field j "id");
              ignore (field j "wall_us");
              ignore (str_field j "status");
              str_field j "outcome")
          lines
      in
      Alcotest.(check (list string))
        "outcomes in order" [ "cold"; "hit"; "ping"; "parse" ] outcomes;
      (* the hit line carries the cache verdict and the key *)
      (match Obs.Json.parse (List.nth lines 1) with
      | Ok j ->
        Alcotest.(check string) "hit cache field" "hit" (str_field j "cache");
        Alcotest.(check bool) "hit carries key" true
          (String.length (str_field j "key") = 32)
      | Error _ -> assert false);
      (* close is idempotent, and a new server appends *)
      Serve.Server.close t;
      let t2 =
        Serve.Server.create
          ~config:
            { Serve.Server.default_config with access_log = Some path }
          ()
      in
      ignore (respond t2 {|{"id": 5, "op": "ping"}|});
      Serve.Server.close t2;
      let ic = open_in path in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      close_in ic;
      Alcotest.(check int) "restart appends" 5 !n)

let test_metrics_monotone_across_recovery () =
  (* a faulted solve's Linalg.Counters (per-request deltas) die with
     it, but the cumulative telemetry must keep counting through it *)
  let t = Serve.Server.create () in
  let tel = Serve.Server.telemetry t in
  ignore (respond t (sched_line ~id:1 "gemver"))(* cold *);
  let before = Serve.Telemetry.requests_total tel in
  Alcotest.(check int) "one request before the fault" 1 before;
  Chaos.arm ~faults:(Chaos.queue [ Chaos.Raise ]) (fun () ->
      let _, faulted = respond t (sched_line ~id:2 "tce") in
      Alcotest.(check string) "typed internal error" "internal"
        (error_code faulted);
      (* the faulted solve's counters were dropped — the telemetry
         kept going *)
      Alcotest.(check int) "requests grew through recovery" 2
        (Serve.Telemetry.requests_total tel);
      Alcotest.(check int) "internal outcome counted" 1
        (Serve.Telemetry.outcome_total tel "internal");
      ignore (respond t (sched_line ~id:3 "tce"));
      Alcotest.(check int) "still monotone after the clean retry" 3
        (Serve.Telemetry.requests_total tel);
      Alcotest.(check int) "cold solves accumulate" 2
        (Serve.Telemetry.outcome_total tel "cold"))

(* --- cold solves in parallel ------------------------------------------------ *)

(* [together n f] runs [f d] for d = 0 .. n-1 on [n] domains released at
   once and returns the results in order. Workers only compute:
   Alcotest's reporter is not domain-safe. A request that never returns
   fails the test instead of hanging it. *)
let together n f =
  let ready = Atomic.make 0 and finished = Atomic.make 0 in
  let domains =
    List.init n (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < n do
              Domain.cpu_relax ()
            done;
            Fun.protect ~finally:(fun () -> Atomic.incr finished) (fun () -> f d)))
  in
  let t0 = Unix.gettimeofday () in
  while Atomic.get finished < n && Unix.gettimeofday () -. t0 < 60.0 do
    Unix.sleepf 0.005
  done;
  if Atomic.get finished < n then Alcotest.fail "a request never returned";
  List.map Domain.join domains

(* [await cond] polls until [cond ()] holds, for at most 10 s *)
let await cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < 10.0 do
    Unix.sleepf 0.001
  done

(* the result bytes of [kernel]/[model] from a fresh single-domain server *)
let reference_result ?(model = "wisefuse") kernel =
  let t = Serve.Server.create () in
  let _, cold = respond t (request_line ~id:1 ~model kernel) in
  Obs.Json.to_string (field cold "result")

let test_parallel_cold_solves () =
  (* four different keys solved at once on one server: every payload,
     its counters (serve_* mirrors included) too, is byte-identical to
     a lone solve's *)
  let pairs =
    [ ("gemver", "wisefuse"); ("tce", "smartfuse"); ("advect", "maxfuse");
      ("swim", "nofuse") ]
  in
  let reference = List.map (fun (k, model) -> reference_result ~model k) pairs in
  let t =
    Serve.Server.create ~config:{ Serve.Server.default_config with domains = 4 } ()
  in
  let responses =
    together 4 (fun d ->
        let kernel, model = List.nth pairs d in
        Serve.Server.handle_line t (request_line ~id:d ~model kernel))
  in
  List.iteri
    (fun d response ->
      let kernel, model = List.nth pairs d in
      let _, j = parse_response response in
      Alcotest.(check string) (kernel ^ "/" ^ model ^ " is a miss") "miss"
        (str_field j "cache");
      Alcotest.(check string)
        (kernel ^ "/" ^ model ^ " byte-identical to a lone solve")
        (List.nth reference d)
        (Obs.Json.to_string (field j "result")))
    responses

let test_fault_stays_on_its_domain () =
  (* a Raise fault fires on one domain while another domain is solving
     a different key; the other solve's payload is untouched *)
  let reference = reference_result "swim" in
  let t =
    Serve.Server.create ~config:{ Serve.Server.default_config with domains = 2 } ()
  in
  let faulty = Domain.DLS.new_key (fun () -> false) in
  let solving = Atomic.make false and faulted = Atomic.make false in
  let faults =
    Chaos.sampled (fun () ->
        if Domain.DLS.get faulty then begin
          (* raise only once the other solve has begun *)
          await (fun () -> Atomic.get solving);
          Atomic.set faulted true;
          Some Chaos.Raise
        end
        else begin
          Atomic.set solving true;
          await (fun () -> Atomic.get faulted);
          None
        end)
  in
  Chaos.arm ~faults (fun () ->
      let responses =
        together 2 (fun d ->
            if d = 0 then begin
              Domain.DLS.set faulty true;
              Serve.Server.handle_line t (sched_line ~id:d "gemver")
            end
            else Serve.Server.handle_line t (sched_line ~id:d "swim"))
      in
      match List.map parse_response responses with
      | [ (_, faulted_resp); (_, healthy) ] ->
        Alcotest.(check string) "the faulted request is typed internal"
          "internal" (error_code faulted_resp);
        Alcotest.(check string) "the other request solved" "miss"
          (str_field healthy "cache");
        Alcotest.(check string) "and is byte-identical to a lone solve"
          reference
          (Obs.Json.to_string (field healthy "result"));
        Alcotest.(check int) "one recovery" 1 (Serve.Server.recovered t)
      | _ -> assert false)

let test_waiters_after_degraded_solve () =
  (* three requests for one key; the first solve is starved. Its
     answer is degraded and uncached, exactly one later solve stores
     the key, and the third request is a hit *)
  let t =
    Serve.Server.create ~config:{ Serve.Server.default_config with domains = 3 } ()
  in
  let first = Atomic.make true in
  let faults =
    Chaos.sampled (fun () ->
        if Atomic.exchange first false then begin
          (* hold the first solve until all three requests are in
             flight, so the other two wait on its key: the health probe
             counts them plus itself *)
          await (fun () ->
              let _, j = respond t {|{"id": 0, "op": "health"}|} in
              match Obs.Json.to_int_opt (field (field j "health") "backlog") with
              | Some n -> n >= 4
              | None -> false);
          Unix.sleepf 0.02;
          Some Chaos.Exhaust
        end
        else None)
  in
  Chaos.arm ~faults (fun () ->
      let responses =
        together 3 (fun d -> Serve.Server.handle_line t (sched_line ~id:d "tce"))
      in
      let answers = List.map (fun r -> snd (parse_response r)) responses in
      List.iter
        (fun j -> Alcotest.(check string) "every answer ok" "ok" (str_field j "status"))
        answers;
      let count state =
        List.length (List.filter (fun j -> str_field j "cache" = state) answers)
      in
      Alcotest.(check int) "one degraded answer, uncached" 1 (count "uncached");
      Alcotest.(check int) "exactly one solve stored the key" 1 (count "miss");
      Alcotest.(check int) "the last request hit" 1 (count "hit");
      List.iter
        (fun j ->
          if str_field j "cache" = "uncached" then
            Alcotest.(check string) "the starved solve degraded" "identity"
              (str_field (field j "result") "rung"))
        answers;
      Alcotest.(check int) "one injected exhaust" 1 (Chaos.exhausts faults);
      Alcotest.(check int) "two solves in all" 2
        (Cache.stats (Serve.Server.cache t)).Cache.misses)

let () =
  Alcotest.run "serve"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "sensitivity" `Quick test_fingerprint_sensitivity;
          Alcotest.test_case "alpha-invariant" `Quick
            test_fingerprint_alpha_invariant;
          Alcotest.test_case "pinned keys" `Quick test_fingerprint_pinned;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "counting" `Quick test_cache_counting;
        ] );
      ( "server",
        [
          Alcotest.test_case "warm = cold bytes (all kernels x models)" `Slow
            test_warm_cold_identical;
          Alcotest.test_case "concurrent domains" `Quick
            test_concurrent_domains;
          Alcotest.test_case "parallel cold solves" `Quick
            test_parallel_cold_solves;
          Alcotest.test_case "engine selection" `Quick test_engine_requests;
          Alcotest.test_case "protocol envelopes" `Quick
            test_protocol_envelopes;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "firewall recovery" `Quick test_firewall_recovery;
          Alcotest.test_case "fault stays on its domain" `Quick
            test_fault_stays_on_its_domain;
          Alcotest.test_case "waiters after a degraded solve" `Quick
            test_waiters_after_degraded_solve;
          Alcotest.test_case "breaker opens and closes" `Quick
            test_breaker_opens_and_closes;
          Alcotest.test_case "deadline degrades, uncached" `Quick
            test_deadline_degrades_uncached;
          Alcotest.test_case "exhaustion degrades" `Quick
            test_exhaustion_degrades;
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "admission shedding" `Quick
            test_admission_shedding;
          Alcotest.test_case "health + idempotent shutdown" `Quick
            test_health_and_idempotent_shutdown;
          Alcotest.test_case "metrics op + snapshot" `Quick test_metrics_op;
          Alcotest.test_case "stage metrics" `Quick test_stage_metrics;
          Alcotest.test_case "trace sampling" `Quick test_trace_sampling;
          Alcotest.test_case "access log" `Quick test_access_log;
          Alcotest.test_case "metrics monotone across recovery" `Quick
            test_metrics_monotone_across_recovery;
          Alcotest.test_case "deadline validation" `Quick
            test_deadline_validation;
        ] );
    ]
