(* Tests of the benchmark itself: its statistics, its seeds, its
   comparison verdicts, and a smoke pass of every workload through the
   executable, checked against BENCHMARK.json. *)

open Wb

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* --- statistics -------------------------------------------------------- *)

let test_tail_rule () =
  for n = 1 to 30_000 do
    let p = Stats.tail_percentile n in
    if p > 500 then
      Alcotest.(check bool) (Printf.sprintf "n=%d: >= 10 beyond" n) true (Stats.beyond ~n p >= 10);
    List.iter
      (fun q ->
        if q > p then
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: %s has < 10 beyond" n (Stats.percentile_name q))
            true
            (Stats.beyond ~n q < 10))
      Stats.ladder
  done;
  Alcotest.(check int) "100 samples: p90" 900 (Stats.tail_percentile 100);
  Alcotest.(check int) "99 samples: p75" 750 (Stats.tail_percentile 99);
  Alcotest.(check int) "199 samples: p90" 900 (Stats.tail_percentile 199);
  Alcotest.(check int) "200 samples: p95" 950 (Stats.tail_percentile 200);
  Alcotest.(check int) "the ladder stops at p95" 950 (Stats.tail_percentile 100_000);
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p90 of 1..100" 90.0 (Stats.percentile a 900);
  check_float "p50 of 1..100" 50.0 (Stats.percentile a 500)

let test_geomean_quartiles () =
  check_float "geomean" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.(check bool) "geomean of a zero is nan" true (Float.is_nan (Stats.geomean [ 0.0; 2.0 ]));
  check_float "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3

(* --- seeds ------------------------------------------------------------- *)

let test_seeds () =
  let reg s = Compile_wl.order (Compile_wl.registry ~smoke:false ~seed:s ~seconds:15.0) in
  Alcotest.(check bool) "registry: same seed, same job order" true (reg 1 = reg 1);
  Alcotest.(check bool) "registry: another seed, another order" false (reg 1 = reg 2);
  let scale s =
    Array.map (fun p -> p.Compile_wl.pname) (Compile_wl.scale ~smoke:false ~seed:s ~seconds:15.0).programs
  in
  Alcotest.(check bool) "scale: every seed, the same programs" true (scale 1 = scale 2);
  let sc s = Compile_wl.order (Compile_wl.scale ~smoke:false ~seed:s ~seconds:15.0) in
  Alcotest.(check bool) "scale: another seed, another order" false (sc 1 = sc 2);
  let hot s id = Serve_wl.hot_stream ~seed:s ~nkeys:70 ~n:1000 id in
  Alcotest.(check bool) "serve-hot: same seed, same stream" true (hot 1 0 = hot 1 0);
  Alcotest.(check bool) "serve-hot: another seed, another stream" false (hot 1 0 = hot 2 0);
  Alcotest.(check bool) "serve-hot: clients draw apart" false (hot 1 0 = hot 1 1);
  let cold s = Serve_wl.cold_stream ~seed:s ~nkeys:70 ~rounds:3 in
  Alcotest.(check bool) "serve-cold: same seed, same stream" true (cold 1 = cold 1);
  Alcotest.(check bool) "serve-cold: another seed, another stream" false (cold 1 = cold 2);
  let offsets = List.sort_uniq compare (Array.to_list (Array.map snd (cold 1))) in
  Alcotest.(check int) "serve-cold: no size recurs" 210 (List.length offsets)

(* --- comparison verdicts ------------------------------------------------ *)

let metric name = Option.get (Spec.find name)

let verdict name ~parent ~change =
  Compare.verdict_name (Compare.judge (metric name) ~parent ~change)

let around x = List.init 10 (fun i -> x *. (1.0 +. (0.002 *. float_of_int (i - 5))))

let test_verdicts () =
  let v = Alcotest.(check string) in
  (* every end-to-end bound is 25% *)
  v "within the bound" "same" (verdict "latency_gm_ms" ~parent:(around 100.0) ~change:(around 120.0));
  v "past the bound" "worse" (verdict "latency_gm_ms" ~parent:(around 100.0) ~change:(around 130.0));
  v "wins every pair" "better" (verdict "latency_gm_ms" ~parent:(around 100.0) ~change:(around 80.0));
  v "higher is better" "worse" (verdict "ops_per_s" ~parent:(around 100.0) ~change:(around 70.0));
  v "higher is better, gain" "better" (verdict "ops_per_s" ~parent:(around 100.0) ~change:(around 120.0));
  let noisy = [ 60.0; 80.0; 90.0; 100.0; 100.0; 100.0; 110.0; 120.0; 140.0; 160.0 ] in
  v "parent spread wider than the bound" "unresolved"
    (verdict "latency_gm_ms" ~parent:(List.map (fun x -> x *. 1.3) noisy) ~change:(around 130.0));
  v "a count that repeats" "same" (verdict "ilp.lp_pivots" ~parent:[ 7.0; 7.0 ] ~change:[ 7.0; 7.0 ]);
  v "a count that moved" "changed" (verdict "ilp.lp_pivots" ~parent:[ 7.0; 7.0 ] ~change:[ 8.0; 8.0 ]);
  v "a layer timing" "n/a" (verdict "deps.analyze_ms" ~parent:[ 1.0 ] ~change:[ 2.0 ])

(* --- BENCHMARK.json agrees with Spec ------------------------------------ *)

let read path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

let benchmark_json = "../BENCHMARK.json"

let declared_full section =
  match Obs.Json.parse (read benchmark_json) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    Option.get (Option.bind (Obs.Json.member section doc) Obs.Json.to_list_opt)
    |> List.map (fun m ->
           let s f = Option.get (Option.bind (Obs.Json.member f m) Obs.Json.to_string_opt) in
           ((s "name", s "unit"), s "better"))

let declared section = List.map fst (declared_full section)

let names ms =
  List.map
    (fun (m : Spec.metric) ->
      ((m.Spec.name, m.Spec.unit_), match m.Spec.better with Spec.Lower -> "lower" | Spec.Higher -> "higher"))
    ms

let test_declared () =
  let pairs = Alcotest.(list (pair (pair string string) string)) in
  Alcotest.check pairs "end_to_end" (names Spec.end_to_end) (declared_full "end_to_end");
  Alcotest.check pairs "per_layer" (names Spec.per_layer) (declared_full "per_layer");
  match Obs.Json.parse (read benchmark_json) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let workloads =
      Option.get (Option.bind (Obs.Json.member "workloads" doc) Obs.Json.to_list_opt)
      |> List.map (fun w -> Option.get (Option.bind (Obs.Json.member "name" w) Obs.Json.to_string_opt))
    in
    Alcotest.(check (list string)) "workloads" Spec.workloads workloads;
    List.iter
      (fun m ->
        let bound =
          Option.bind (Obs.Json.member "bound" m) Obs.Json.to_float_opt |> Option.get
        in
        let name = Option.get (Option.bind (Obs.Json.member "name" m) Obs.Json.to_string_opt) in
        Alcotest.(check (option (float 1e-12))) (name ^ " bound") (metric name).Spec.bound (Some bound))
      (Option.get (Option.bind (Obs.Json.member "end_to_end" doc) Obs.Json.to_list_opt))

(* --- the smoke pass ----------------------------------------------------- *)

let trace_dir = "smoke-traces"

let run_exe args =
  let out = Printf.sprintf "smoke-%d.out" (Hashtbl.hash args) in
  let cmd =
    Filename.quote_command "./wisebench.exe"
      ([ "--smoke"; "--golden"; "golden.json"; "--trace-dir"; trace_dir ] @ args)
      ~stdout:out
  in
  let code = Sys.command cmd in
  let text = read out in
  Sys.remove out;
  Alcotest.(check int) ("exit code of " ^ String.concat " " args) 0 code;
  String.split_on_char '\n' (String.trim text)

let smoke w ~trace () =
  let lines = run_exe [ "--workload"; w; "--trace"; (if trace then "1" else "0") ] in
  let last = List.nth lines (List.length lines - 1) in
  let result =
    match Obs.Json.parse last with Ok r -> r | Error e -> Alcotest.fail (e ^ ": " ^ last)
  in
  let keys = match result with Obs.Json.Obj fs -> List.map fst fs | _ -> [] in
  Alcotest.(check (list string)) "result keys" [ "correct"; "attempted"; "failed"; "metrics" ] keys;
  let get f = Option.get (Obs.Json.member f result) in
  Alcotest.(check (option bool)) "correct" (Some true) (Obs.Json.to_bool_opt (get "correct"));
  Alcotest.(check (option int)) "failed" (Some 0) (Obs.Json.to_int_opt (get "failed"));
  Alcotest.(check bool) "attempted" true (Option.get (Obs.Json.to_int_opt (get "attempted")) >= 1);
  let printed =
    match get "metrics" with
    | Obs.Json.Obj ms ->
      List.map
        (fun (n, v) ->
          Alcotest.(check bool) (n ^ " is a number") true
            (Option.is_some (Option.bind (Obs.Json.member "value" v) Obs.Json.to_float_opt));
          (n, Option.get (Option.bind (Obs.Json.member "unit" v) Obs.Json.to_string_opt)))
        ms
    | _ -> []
  in
  Alcotest.(check (list (pair string string)))
    "every metric with its unit" (declared (if trace then "per_layer" else "end_to_end")) printed;
  if trace then begin
    (* the trace the run wrote passes the exporter's own validator *)
    let path = Filename.concat trace_dir (Printf.sprintf "%s-1.trace.json" w) in
    (match Obs.Json.parse (read path) with
    | Error e -> Alcotest.fail e
    | Ok doc -> (
      match Obs.Export.validate doc with
      | Ok n -> Alcotest.(check bool) "trace has events" true (n > 1)
      | Error e -> Alcotest.fail e));
    (* each traced job's layer self-times sum to its wall within 5% *)
    let gaps =
      List.filter_map
        (fun l ->
          Scanf.sscanf_opt l "layer self-times reconcile with %_s wall: %_s@p %f%%" Fun.id)
        lines
    in
    Alcotest.(check bool) "layers reconcile within 5%" true
      (gaps <> [] && List.for_all (fun g -> g < 5.0) gaps)
  end

let smoke_cases =
  List.concat_map
    (fun w ->
      [ Alcotest.test_case (w ^ " end-to-end") `Quick (smoke w ~trace:false);
        Alcotest.test_case (w ^ " traced") `Quick (smoke w ~trace:true) ])
    Spec.workloads

let () =
  Alcotest.run "wisebench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "geomean and quartiles" `Quick test_geomean_quartiles ] );
      ("seeds", [ Alcotest.test_case "determinism" `Quick test_seeds ]);
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("declared", [ Alcotest.test_case "BENCHMARK.json agrees" `Quick test_declared ]);
      ("smoke", smoke_cases) ]
