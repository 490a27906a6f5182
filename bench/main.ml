(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) on the machine model, plus two A/B
   overhead runs and the serving daemon's chaos soak. Compile and serve
   timings live in wisebench (`bash wisebench/run.sh`), not here.

     dune exec bench/main.exe                      - everything
     dune exec bench/main.exe -- fig7              - a single experiment
     dune exec bench/main.exe -- soak              - the chaos soak; exits
       non-zero naming each violated survival bound
   Experiments: table1 table2 fig1 fig3 fig5 fig4_6 fig7 fig8 scaling
                ablation extras tiling locality space vector
                budget telemetry soak *)

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

(* --- shared machinery ---------------------------------------------------- *)

module Model = Fusion.Model

open Model (* constructors Icc .. Wisefuse *)

let model_name = Model.name
let all_models = Model.all
let scheduler_config = Model.scheduler_config

(* optimize once, memoized: (kernel, model) -> ast (+ result for the
   polyhedral models) *)
let memo : (string * string, Codegen.Ast.node * Pluto.Scheduler.result option) Hashtbl.t =
  Hashtbl.create 64

let optimize prog model =
  let key = (prog.Scop.Program.name, model_name model) in
  match Hashtbl.find_opt memo key with
  | Some v -> v
  | None ->
    let opt = Model.optimize model prog in
    let v = (opt.Model.ast, opt.Model.scheduler) in
    Hashtbl.replace memo key v;
    v

let simulate ?(cores = 8) prog model =
  let ast, _ = optimize prog model in
  let config = Machine.Perf.with_cores cores Machine.Perf.default in
  Machine.Perf.simulate ~config prog ast
    ~params:prog.Scop.Program.default_params

let verify prog model =
  let params = prog.Scop.Program.default_params in
  let ast, _ = optimize prog model in
  let m_ref = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run_original prog m_ref ~params;
  let m = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run prog ast m ~params;
  Machine.Interp.first_diff m_ref m

(* --- Table 1 ------------------------------------------------------------- *)

let table1 () =
  section "Table 1: summary of the fusion models";
  List.iter
    (fun m ->
      Printf.printf "  %-10s %s\n" (Model.name m) (Model.description m))
    [ Icc; Wisefuse; Smartfuse; Nofuse; Maxfuse ]

(* --- Table 2 ------------------------------------------------------------- *)

let table2 () =
  section "Table 2: benchmarks (paper sizes and scaled model sizes)";
  Printf.printf "  %-10s %-10s %-34s %-30s %s\n" "name" "suite" "category"
    "paper size" "model N";
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      Printf.printf "  %-10s %-10s %-34s %-30s %d\n" e.name e.suite e.category
        e.paper_size e.model_size)
    Kernels.Registry.all

(* --- Figure 1 / Figure 3: gemver ------------------------------------------ *)

let fig1 () =
  section "Figure 1: gemver - fusion of S1 and S2 requires interchange";
  let prog = Kernels.Gemver.program ~n:20 () in
  let res = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
  let part = res.Pluto.Scheduler.outer_partition in
  Printf.printf "  S1 and S2 fused: %b (partitions: S1=%d S2=%d S3=%d S4=%d)\n"
    (part.(0) = part.(1))
    part.(0) part.(1) part.(2) part.(3);
  let first_hyp id =
    let rec go = function
      | Pluto.Sched.Hyp h :: _ -> h
      | _ :: rest -> go rest
      | [] -> [||]
    in
    go res.Pluto.Scheduler.sched.(id)
  in
  let h1 = first_hyp 0 in
  Printf.printf "  S1's outer hyperplane: (%d %d) -> %s\n" h1.(0) h1.(1)
    (if h1.(0) = 0 && h1.(1) = 1 then "loops interchanged (Figure 1(c))"
     else "unexpected");
  (match verify prog Wisefuse with
  | None -> Printf.printf "  legality: transformed == original\n"
  | Some d -> Printf.printf "  BUG: %s\n" d)

let fig3 () =
  section "Figure 3: gemver - statement-wise multidimensional transforms";
  let prog = Kernels.Gemver.program ~n:20 () in
  let res = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
  Format.printf "%a@." (Pluto.Sched.pp prog) res.Pluto.Scheduler.sched;
  Printf.printf "  (paper: T_S1=(0,j,i), T_S2=(0,i,j), T_S3=(1,i,-), T_S4=(2,i,j);\n";
  Printf.printf "   the trailing scalar row is the textual position inside the nest)\n"

(* --- Figure 2 / Figure 5: swim --------------------------------------------- *)

let fig5 () =
  section "Figure 5: swim - pre-fusion schedules and fused partitions";
  let prog = Kernels.Swim.program ~n:24 () in
  let wf = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
  let sf = Pluto.Scheduler.run (scheduler_config Smartfuse) prog in
  let stmt_names (res : Pluto.Scheduler.result) =
    List.map
      (fun scc ->
        let members = (Deps.Ddg.components res.scc_of).(scc) in
        String.concat ","
          (List.map
             (fun id -> prog.Scop.Program.stmts.(id).Scop.Statement.name)
             members))
      res.scc_order
  in
  Printf.printf "  Algorithm 1 order: %s\n" (String.concat " " (stmt_names wf));
  Printf.printf "  PLuTo DFS order:   %s\n" (String.concat " " (stmt_names sf));
  Format.printf "@.%a@." Fusion.Report.pp_table wf;
  Format.printf "%a@." Fusion.Report.pp_table sf;
  Printf.printf
    "  partitions: wisefuse %d vs smartfuse %d; reuse co-located: %d vs %d\n"
    (Fusion.Report.partition_count wf)
    (Fusion.Report.partition_count sf)
    (Fusion.Report.reuse_score wf)
    (Fusion.Report.reuse_score sf)

(* --- Figure 4 / Figure 6: advect ------------------------------------------- *)

let fig4_6 () =
  section "Figures 4 & 6: advect - shifting vs Algorithm 2 distribution";
  let prog = Kernels.Advect.program ~n:16 () in
  let mf = Pluto.Scheduler.run (scheduler_config Maxfuse) prog in
  let wf = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
  Printf.printf "maxfuse (Figure 4(c), fully fused after shifting):\n";
  Format.printf "%a@." (Codegen.Ast.pp prog) (Codegen.Scan.of_result mf);
  Printf.printf "wisefuse (Figure 6, S4 distributed, both nests parallel):\n";
  Format.printf "%a@." (Codegen.Ast.pp prog) (Codegen.Scan.of_result wf);
  Printf.printf "  partitions: maxfuse %d, wisefuse %d\n"
    (Fusion.Report.partition_count mf)
    (Fusion.Report.partition_count wf)

(* --- Figure 7: normalized performance -------------------------------------- *)

let fig7 () =
  section
    "Figure 7: performance normalized to icc, 8 model cores (higher = faster)";
  Printf.printf "  %-10s" "benchmark";
  List.iter (fun m -> Printf.printf " %10s" (model_name m)) all_models;
  Printf.printf "   (model cycles: icc)\n";
  let ratios = Hashtbl.create 16 in
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      let prog = Kernels.Registry.build e in
      List.iter
        (fun m ->
          match verify prog m with
          | None -> ()
          | Some d ->
            Printf.printf "  !! %s/%s semantic mismatch: %s\n" e.name
              (model_name m) d)
        all_models;
      let icc_cycles = (simulate prog Icc).Machine.Perf.cycles in
      Printf.printf "  %-10s" e.name;
      List.iter
        (fun m ->
          let c = (simulate prog m).Machine.Perf.cycles in
          let ratio = float_of_int icc_cycles /. float_of_int c in
          Hashtbl.replace ratios (e.name, m) ratio;
          Printf.printf " %10.2f" ratio)
        all_models;
      Printf.printf "   (%d)\n%!" icc_cycles)
    Kernels.Registry.all;
  Printf.printf "  %-10s" "GM";
  List.iter
    (fun m ->
      let prod, n =
        List.fold_left
          (fun (p, n) (e : Kernels.Registry.entry) ->
            (p *. Hashtbl.find ratios (e.name, m), n + 1))
          (1.0, 0) Kernels.Registry.all
      in
      Printf.printf " %10.2f" (prod ** (1.0 /. float_of_int n)))
    all_models;
  Printf.printf "\n"

(* --- Figure 8: gemsfdtd partitioning ---------------------------------------- *)

let fig8 () =
  section "Figure 8: gemsfdtd - partitioning per fusion model";
  let prog = Kernels.Gemsfdtd.program ~n:10 () in
  let wf = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
  let sf = Pluto.Scheduler.run (scheduler_config Smartfuse) prog in
  let icc = Icc.Icc_model.run prog in
  let icc_part = Pluto.Sched.outer_partition icc.Icc.Icc_model.sched in
  Printf.printf "  %-6s %-4s %-6s %-10s %-9s\n" "SCC" "dim" "icc" "smartfuse"
    "wisefuse";
  List.iter
    (fun (r : Fusion.Report.row) ->
      let rep = List.hd r.members in
      Printf.printf "  %-6d %-4d %-6d %-10d %-9d (%s)\n" r.scc r.dim
        icc_part.(rep)
        sf.Pluto.Scheduler.outer_partition.(rep)
        wf.Pluto.Scheduler.outer_partition.(rep)
        prog.Scop.Program.stmts.(rep).Scop.Statement.name)
    (Fusion.Report.partition_table wf);
  let distinct a = List.length (List.sort_uniq compare (Array.to_list a)) in
  Printf.printf "  partitions: icc %d, smartfuse %d, wisefuse %d\n"
    (List.length icc.Icc.Icc_model.nests)
    (distinct sf.Pluto.Scheduler.outer_partition)
    (distinct wf.Pluto.Scheduler.outer_partition)

(* --- scaling (Section 5.3's "the performance gap increases with the
   number of processors") ----------------------------------------------------- *)

let scaling () =
  section "Scaling: wisefuse vs smartfuse cycles at 1/2/4/8 cores";
  List.iter
    (fun (name, prog) ->
      Printf.printf "  %s:\n  %8s %12s %12s %8s\n" name "cores" "smartfuse"
        "wisefuse" "gap";
      List.iter
        (fun cores ->
          let sf = (simulate ~cores prog Smartfuse).Machine.Perf.cycles in
          let wf = (simulate ~cores prog Wisefuse).Machine.Perf.cycles in
          Printf.printf "  %8d %12d %12d %8.2f\n%!" cores sf wf
            (float_of_int sf /. float_of_int wf))
        [ 1; 2; 4; 8 ])
    [ ("advect", Kernels.Advect.program ~n:40 ());
      ("swim", Kernels.Swim.program ~n:40 ()) ]

(* --- ablations ---------------------------------------------------------------- *)

let ablation () =
  section "Ablations: what each ingredient of wisefuse buys";
  let no_rar_order prog (ddg : Deps.Ddg.t) scc_of =
    (* Algorithm 1 without input dependences (Section 2.3, drawback 2) *)
    let filtered = { ddg with Deps.Ddg.deps = List.filter Deps.Dep.is_true ddg.deps } in
    Fusion.Prefusion.order prog filtered scc_of
  in
  let variants =
    [ ("wisefuse", Fusion.Wisefuse.config);
      ( "no-RAR",
        { Fusion.Wisefuse.config with
          Pluto.Scheduler.name = "wisefuse-no-rar";
          order_sccs = no_rar_order } );
      ( "no-Alg2",
        { Fusion.Wisefuse.config with
          Pluto.Scheduler.name = "wisefuse-no-alg2";
          outer_parallel = false } );
      ( "lazy-cuts",
        { Fusion.Wisefuse.config with
          Pluto.Scheduler.name = "wisefuse-lazy";
          initial_cut = None;
          fallback_cut = Pluto.Scheduler.Cut_between_dims } ) ]
  in
  List.iter
    (fun (kname, prog) ->
      Printf.printf "  %s:\n" kname;
      List.iter
        (fun (tag, cfg) ->
          let res = Pluto.Scheduler.run cfg prog in
          let ast = Codegen.Scan.of_result res in
          let st =
            Machine.Perf.simulate prog ast
              ~params:prog.Scop.Program.default_params
          in
          Printf.printf
            "    %-10s partitions=%2d reuse=%3d cycles=%9d barriers=%3d\n%!" tag
            (Fusion.Report.partition_count res)
            (Fusion.Report.reuse_score res)
            st.Machine.Perf.cycles st.Machine.Perf.barriers)
        variants)
    [ ("swim", Kernels.Swim.program ~n:24 ());
      ("advect", Kernels.Advect.program ~n:24 ());
      ("gemsfdtd", Kernels.Gemsfdtd.program ~n:8 ()) ]

(* --- Polybench extras: wisefuse == smartfuse on small kernels --------------- *)

let extras () =
  section
    "Polybench extras: wisefuse matches smartfuse's partitionings (Section 5.3)";
  List.iter
    (fun (name, mk) ->
      let prog = mk () in
      let wf = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
      let sf = Pluto.Scheduler.run (scheduler_config Smartfuse) prog in
      let same =
        wf.Pluto.Scheduler.outer_partition = sf.Pluto.Scheduler.outer_partition
      in
      Printf.printf "  %-10s partitions: wisefuse %d, smartfuse %d  %s
%!" name
        (Fusion.Report.partition_count wf)
        (Fusion.Report.partition_count sf)
        (if same then "(identical)" else "(different!)"))
    Kernels.Extras.all

(* --- tiling ablation -------------------------------------------------------- *)

let tiling () =
  section "Tiling ablation: wisefuse with and without rectangular tiling";
  Printf.printf "  %-10s %12s %12s %8s %10s %10s
" "benchmark" "untiled"
    "tiled" "ratio" "l2m plain" "l2m tiled";
  List.iter
    (fun (name, prog) ->
      let res = Pluto.Scheduler.run (scheduler_config Wisefuse) prog in
      let params = prog.Scop.Program.default_params in
      let plain =
        Machine.Perf.simulate prog (Codegen.Scan.of_result res) ~params
      in
      let tiled =
        Machine.Perf.simulate prog (Codegen.Tile.of_result ~size:8 res) ~params
      in
      Printf.printf "  %-10s %12d %12d %8.2f %10d %10d
%!" name
        plain.Machine.Perf.cycles tiled.Machine.Perf.cycles
        (float_of_int plain.Machine.Perf.cycles
        /. float_of_int tiled.Machine.Perf.cycles)
        plain.Machine.Perf.l2_misses tiled.Machine.Perf.l2_misses)
    [ ("gemver", Kernels.Gemver.program ~n:64 ());
      ("advect", Kernels.Advect.program ~n:48 ());
      ("tce", Kernels.Tce.program ~n:16 ()) ]

(* --- reuse-distance profiles ------------------------------------------------- *)

let locality () =
  section "Reuse distances: how much closer fusion brings reuses (swim)";
  let prog = Kernels.Swim.program ~n:16 () in
  let params = prog.Scop.Program.default_params in
  Printf.printf "  %-10s %10s %8s %12s %12s %12s
" "model" "accesses" "cold"
    "mean dist" "<64 lines" "<256 lines";
  List.iter
    (fun m ->
      let ast, _ = optimize prog m in
      let s = Machine.Locality.of_trace (Machine.Locality.capture prog ast ~params) in
      Printf.printf "  %-10s %10d %8d %12.1f %12d %12d
%!" (model_name m)
        s.Machine.Locality.accesses s.Machine.Locality.cold
        s.Machine.Locality.mean_finite
        (s.Machine.Locality.within 64)
        (s.Machine.Locality.within 256))
    all_models

(* --- the introduction's search space, exhaustively ---------------------------- *)

let space () =
  section
    "Search space (Section 1): orderings x partitionings, and exhaustive search";
  (* the two counting examples of the introduction *)
  let mini3 =
    let open Scop.Build in
    let ctx = create ~name:"indep3" ~params:[ ("N", 16) ] in
    let n = param ctx "N" in
    let a = array ctx "a" [ n ] and b = array ctx "b" [ n ] and c = array ctx "c" [ n ] in
    let x = array ctx "x" [ n ] and y = array ctx "y" [ n ] and z = array ctx "z" [ n ] in
    let lb = ci 0 and ub = n -~ ci 1 in
    loop ctx "i" ~lb ~ub (fun i -> assign ctx "S1" a [ i ] (x.%([ i ]) *: f 2.0));
    loop ctx "i" ~lb ~ub (fun i -> assign ctx "S2" b [ i ] ((x.%([ i ]) +: y.%([ i ])) *: f 0.5));
    loop ctx "i" ~lb ~ub (fun i -> assign ctx "S3" c [ i ] (z.%([ i ]) *: f 2.0));
    finish ctx
  in
  let deps = Deps.Dep.analyze mini3 in
  let ddg = Deps.Ddg.build mini3 deps in
  let scc_of = Deps.Ddg.scc_kosaraju ddg in
  Printf.printf
    "  3 independent statements: %d orderings x %d partitionings = %d candidates
"
    (List.length (Fusion.Search.orderings ddg scc_of))
    (Fusion.Search.partitionings_per_ordering 3)
    (Fusion.Search.space_size ddg scc_of);
  Printf.printf
    "  (the paper: 24; and 90 x 32 = 2880 for swim's S13-S18 - verified in the
";
  Printf.printf
    "   test suite; for all 18 statements of the swim excerpt the space is
";
  Printf.printf
    "   astronomically large, which is why a cost model is needed at all)

";
  (* exhaustive evaluation of all 24 candidates on the machine model *)
  let cands = Fusion.Search.best mini3 in
  Printf.printf "  exhaustive search over %d candidates (modeled cycles):
"
    (List.length cands);
  (match (cands, List.rev cands) with
  | bestc :: _, worst :: _ ->
    Printf.printf "    best  %8d  (order %s, groups %s)
" bestc.Fusion.Search.cycles
      (String.concat "," (List.map string_of_int bestc.Fusion.Search.order))
      (String.concat "," (List.map string_of_int bestc.Fusion.Search.groups));
    Printf.printf "    worst %8d
" worst.Fusion.Search.cycles;
    let wf = Pluto.Scheduler.run (scheduler_config Wisefuse) mini3 in
    let st =
      Machine.Perf.simulate mini3 (Codegen.Scan.of_result wf)
        ~params:mini3.Scop.Program.default_params
    in
    Printf.printf "    wisefuse (no search): %d
%!" st.Machine.Perf.cycles
  | _ -> ())

(* --- vectorization ablation --------------------------------------------------- *)

let vector () =
  section
    "Vectorization ablation (simd model on): guarded/fused loops lose simd";
  Printf.printf
    "  gemver: fusing S1 (interchanged) with S2's reduction kills the
";
  Printf.printf
    "  vectorization of S1's nest - the mechanism behind the paper's
";
  Printf.printf "  'nofuse outperforms wisefuse/smartfuse on gemver'.

";
  let config = { Machine.Perf.default with Machine.Perf.simd_width = 4 } in
  Printf.printf "  %-10s %-10s %12s %12s
" "benchmark" "model" "no-simd"
    "simd x4";
  List.iter
    (fun (kname, prog) ->
      let params = prog.Scop.Program.default_params in
      List.iter
        (fun m ->
          let ast, _ = optimize prog m in
          let plain = Machine.Perf.simulate prog ast ~params in
          let simd = Machine.Perf.simulate ~config prog ast ~params in
          Printf.printf "  %-10s %-10s %12d %12d
%!" kname (model_name m)
            plain.Machine.Perf.cycles simd.Machine.Perf.cycles)
        [ Nofuse; Wisefuse ])
    [ ("gemver", Kernels.Gemver.program ~n:48 ());
      ("advect", Kernels.Advect.program ~n:32 ()) ]

(* --- settings shared by the A/B runs and the soak ---------------------------- *)

(* Smoke mode (BENCH_SMOKE=1, used by CI) runs fewer repetitions, a
   smaller request population and a shorter soak, so the job finishes
   in seconds. *)
let smoke =
  match Sys.getenv_opt "BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* (kernel, N), the ILP-heavy kernels first: swim and gemsfdtd dominate
   the exact arithmetic time (20+ statements, hundreds of LP solves
   each). *)
let timed_kernels = [ ("swim", 24); ("gemsfdtd", 10); ("advect", 16); ("gemver", 20) ]

(* --- budget accounting overhead ----------------------------------------------- *)

(* Times the wisefuse scheduler with no budget against a generous one
   that never trips, so the difference is pure accounting cost (one
   latch check per simplex pivot and branch-and-bound node). Feeds the
   "Robustness" entry in EXPERIMENTS.md; expected well under 2%. *)
let budget_overhead () =
  section "Budget accounting overhead (generous budget vs none)";
  let cfg = scheduler_config Wisefuse in
  List.iter
    (fun (name, n) ->
      let prog = (Kernels.Registry.find name).Kernels.Registry.program ~n () in
      ignore (Pluto.Scheduler.run cfg prog) (* warm-up *);
      let reps = if smoke then 1 else 5 in
      let time budget =
        let best = ref infinity in
        for _ = 1 to reps do
          let t0 = Linalg.Clock.now () in
          ignore (Pluto.Scheduler.run ?budget cfg prog);
          let dt = Linalg.Clock.now () -. t0 in
          if dt < !best then best := dt
        done;
        !best *. 1e3
      in
      let base = time None in
      let budgeted =
        time
          (Some
             (Linalg.Budget.make ~ms:600_000 ~pivots:1_000_000_000
                ~nodes:1_000_000_000 ()))
      in
      Printf.printf
        "  %-10s %8.2f ms unbudgeted  %8.2f ms budgeted  (%+5.2f%%)\n%!" name
        base budgeted
        ((budgeted -. base) /. base *. 100.0))
    timed_kernels

(* --- telemetry overhead: instruments on vs off over warm traffic ------------- *)

(* the request population: (kernel, size option) pairs crossed with the
   five models *)
let serve_population () =
  let kernels =
    if smoke then List.map (fun (k, n) -> (k, Some n)) timed_kernels
    else
      List.map
        (fun (e : Kernels.Registry.entry) -> (e.Kernels.Registry.name, None))
        Kernels.Registry.all
  in
  List.concat_map
    (fun (k, size) ->
      List.map (fun m -> (k, size, model_name m)) all_models)
    kernels

let serve_request_line ~id (kernel, size, model) =
  let open Obs.Json in
  let fields =
    [ ("id", Int id); ("kernel", Str kernel); ("model", Str model) ]
    @ match size with Some n -> [ ("size", Int n) ] | None -> []
  in
  to_string (Obj fields)

let serve_field resp path =
  let rec go j = function
    | [] -> Some j
    | f :: rest -> Option.bind (Obs.Json.member f j) (fun v -> go v rest)
  in
  go resp path

(* The zero-cost-when-disabled claim, measured: the same warm request
   stream (all cache hits after warm-up, so the solver never runs and
   the per-request instrument work is the largest relative term) is
   driven through two servers that differ only in [config.metrics].
   Both must serve byte-identical schedule payloads — telemetry
   observes responses, it never shapes them — and the per-request
   delta is reported like [budget_overhead]'s. *)

let telemetry_overhead () =
  section "Telemetry overhead (metrics instruments on vs off, warm hits)";
  let population = serve_population () in
  let mk metrics =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with metrics }
      ()
  in
  let t_on = mk true in
  let t_off = mk false in
  (* warm both caches over the population; the cold payloads must
     already be byte-identical (key + result) between the two servers *)
  let payload t p =
    let line = serve_request_line ~id:0 p in
    match Serve.Server.handle_line t line with
    | None -> ("", "")
    | Some r -> (
      match Obs.Json.parse r with
      | Error _ -> ("", "")
      | Ok j ->
        let key =
          Option.value ~default:""
            (Option.bind (serve_field j [ "key" ]) Obs.Json.to_string_opt)
        in
        let result =
          match serve_field j [ "result" ] with
          | Some v -> Obs.Json.to_string v
          | None -> ""
        in
        (key, result))
  in
  let identical =
    List.for_all
      (fun p ->
        let k_on, r_on = payload t_on p in
        let k_off, r_off = payload t_off p in
        k_on = k_off && r_on = r_off && r_on <> "")
      population
  in
  if not identical then begin
    Printf.printf
      "  FAIL: schedules differ between metrics-on and metrics-off servers\n";
    exit 1
  end;
  let reqs =
    Array.of_list (List.mapi (fun i p -> serve_request_line ~id:i p) population)
  in
  let reps = if smoke then 3 else 20 in
  let time t =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Linalg.Clock.now () in
      Array.iter (fun line -> ignore (Serve.Server.handle_line t line)) reqs;
      let dt = Linalg.Clock.now () -. t0 in
      if dt < !best then best := dt
    done;
    !best *. 1e6 /. float_of_int (Array.length reqs)
  in
  let off = time t_off in
  let on = time t_on in
  Printf.printf
    "  %d warm requests per rep, best of %d reps; payloads byte-identical\n"
    (Array.length reqs) reps;
  Printf.printf
    "  metrics off %8.2f us/req   metrics on %8.2f us/req   (%+5.2f%%)\n%!"
    off on
    ((on -. off) /. off *. 100.0)

(* --- soak: chaos + hostile traffic against the hardened daemon ---------------- *)

(* The survival experiment behind the "Hardened serving" claims: a
   multi-domain in-process daemon is soaked in thousands of mixed
   requests where a deliberate share of the traffic is hostile
   (malformed JSON, truncated lines, unknown ops, bad engines/models,
   oversized lines) and a share of the cold solves is sabotaged by a
   [Linalg.Chaos] fault plan (injected exceptions, starved budgets, slow
   solves). The daemon must never crash, answer EVERY line with a typed
   envelope, keep deadline overruns bounded, trip and recover the
   circuit breaker, and — the core wiseserve guarantee — still serve
   payloads byte-identical to an unfaulted run afterwards. The run
   checks its own survival bounds ([soak_gate]) and exits 1 on a
   violation, which is the gate CI blocks on. *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(int_of_float (Float.round (p *. float_of_int (n - 1))))

let soak_deadline_ms = 250

(* per-worker xorshift64* state: each domain gets its own stream, so
   the concurrent phase stays deterministic per worker *)
let soak_rand r =
  let open Int64 in
  let x = !r in
  let x = logxor x (shift_left x 13) in
  let x = logxor x (shift_right_logical x 7) in
  let x = logxor x (shift_left x 17) in
  r := x;
  to_int (shift_right_logical x 2)

let soak_rand_float r = float_of_int (soak_rand r land 0xFFFFFF) /. 16777216.0

let soak_registry () =
  List.map (fun (e : Kernels.Registry.entry) -> e.Kernels.Registry.name)
    Kernels.Registry.all

(* cache-busting cold solves stick to the structurally cheap kernels:
   the size only changes the fingerprint (it is a loop-bound parameter,
   not a statement count), so fresh sizes mean fresh cold solves at a
   flat cost *)
let soak_cheap_kernels = [| "gemver"; "tce"; "advect" |]

let soak_oversized_line =
  lazy ("{\"id\": 6, \"pad\": \"" ^ String.make ((1 lsl 20) + 64) 'x' ^ "\"}")

let soak_hostile_line i =
  match i mod 9 with
  | 0 -> {|{"id": 1, "op": "no-such-op"}|}
  | 1 -> "this is not json"
  | 2 -> {|{"truncated":|}
  | 3 -> {|{"id": 2, "kernel": "no-such-kernel"}|}
  | 4 -> {|{"id": 3, "kernel": "gemver", "size": 8, "engine": "bogus"}|}
  | 5 -> {|{"id": 4, "kernel": "gemver", "size": 8, "model": "bogus"}|}
  | 6 -> {|{"id": 5, "kernel": 42}|}
  | 7 -> {|{"id": 6, "kernel": "gemver", "size": 8, "deadline_ms": -1}|}
  | _ -> Lazy.force soak_oversized_line

type soak_reply =
  | Sok of string (* cache state: hit | miss | uncached | "" for ops *)
  | Serr of string (* typed error code *)
  | Suntyped (* missing, unparseable or schema-less response *)

(* per-worker tally, merged after the domains join *)
type soak_tally = {
  mutable sent : int;
  mutable hostile : int;
  mutable hits : int;
  mutable cold : int;
  mutable uncache : int;
  errs : (string, int) Hashtbl.t;
  mutable untyped : int;
  mutable crashes : int;
  mutable overruns : float list; (* ms, from deadline-carrying replies *)
  mutable scrapes : int; (* in-soak "metrics" ops answered *)
  mutable scrape_last : int; (* requests_total from the last scrape *)
  mutable mono : bool; (* scrape totals never decreased *)
}

let soak_fresh_tally () =
  { sent = 0; hostile = 0; hits = 0; cold = 0; uncache = 0;
    errs = Hashtbl.create 16; untyped = 0; crashes = 0; overruns = [];
    scrapes = 0; scrape_last = 0; mono = true }

(* sum every sample of one family in a Prometheus text exposition
   (label sets are summed; histogram suffixes are distinct names) *)
let prom_total text name =
  List.fold_left
    (fun acc line ->
      if line = "" || line.[0] = '#' then acc
      else
        match String.index_opt line ' ' with
        | None -> acc
        | Some sp ->
          let head = String.sub line 0 sp in
          let base =
            match String.index_opt head '{' with
            | Some b -> String.sub head 0 b
            | None -> head
          in
          if base = name then
            acc
            + (match
                 float_of_string_opt
                   (String.sub line (sp + 1) (String.length line - sp - 1))
               with
              | Some f -> int_of_float f
              | None -> 0)
          else acc)
    0
    (String.split_on_char '\n' text)

let soak_classify resp =
  match resp with
  | None -> (Suntyped, None)
  | Some r -> (
    match Obs.Json.parse r with
    | Error _ -> (Suntyped, None)
    | Ok j ->
      let str p = Option.bind (serve_field j p) Obs.Json.to_string_opt in
      let overrun =
        Option.bind (serve_field j [ "serve"; "overrun_ms" ])
          Obs.Json.to_float_opt
      in
      (match str [ "status" ] with
      | Some "ok" ->
        (Sok (Option.value (str [ "cache" ]) ~default:""), overrun)
      | Some "error" -> (
        match str [ "error"; "code" ] with
        | Some code -> (Serr code, overrun)
        | None -> (Suntyped, overrun))
      | _ -> (Suntyped, overrun)))

let soak_send t tally line ~hostile =
  tally.sent <- tally.sent + 1;
  if hostile then tally.hostile <- tally.hostile + 1;
  let raw, reply =
    (* handle_line promises never to raise; a raise IS the crash the
       soak exists to rule out, so count it instead of dying *)
    try
      let raw = Serve.Server.handle_line t line in
      (raw, soak_classify raw)
    with _ ->
      tally.crashes <- tally.crashes + 1;
      (None, (Suntyped, None))
  in
  (match reply with
  | Sok "hit", _ -> tally.hits <- tally.hits + 1
  | Sok "miss", _ -> tally.cold <- tally.cold + 1
  | Sok "uncached", _ -> tally.uncache <- tally.uncache + 1
  | Sok _, _ -> ()
  | Serr code, _ ->
    Hashtbl.replace tally.errs code
      (1 + Option.value (Hashtbl.find_opt tally.errs code) ~default:0)
  | Suntyped, _ -> tally.untyped <- tally.untyped + 1);
  (match reply with
  | _, Some o -> tally.overruns <- o :: tally.overruns
  | _ -> ());
  raw

(* an in-soak scrape: the "metrics" protocol op, answered live while
   other domains hammer the server; the exposition's request total
   must never decrease across a worker's successive scrapes — the
   monotonicity the telemetry promises across fault recoveries *)
let soak_scrape t tally =
  match soak_send t tally {|{"id": "scrape", "op": "metrics"}|} ~hostile:false
  with
  | None -> tally.mono <- false
  | Some r ->
    tally.scrapes <- tally.scrapes + 1;
    let total =
      match Obs.Json.parse r with
      | Error _ -> -1
      | Ok j -> (
        match
          Option.bind
            (serve_field j [ "metrics"; "text" ])
            Obs.Json.to_string_opt
        with
        | None -> -1
        | Some text -> prom_total text "wisefuse_serve_requests_total")
    in
    if total < tally.scrape_last then tally.mono <- false;
    tally.scrape_last <- max total tally.scrape_last

(* one worker domain's request stream against the shared server *)
let soak_worker t ~worker ~count =
  let rng = ref (Int64.of_int ((worker + 1) * 0x9E3779B9)) in
  let tally = soak_fresh_tally () in
  let registry = Array.of_list (soak_registry ()) in
  let fresh = ref 0 in
  for i = 1 to count do
    (* a live scrape rides along every 50 requests *)
    if i mod 50 = 0 then soak_scrape t tally;
    let r = soak_rand_float rng in
    if r < 0.12 then
      ignore (soak_send t tally (soak_hostile_line (soak_rand rng)) ~hostile:true)
    else if r < 0.40 then begin
      (* cache-busting cold solve: a size nobody else requests, so the
         fault plan sees a steady stream of fresh fingerprints *)
      incr fresh;
      let kernel =
        soak_cheap_kernels.(soak_rand rng mod Array.length soak_cheap_kernels)
      in
      let size = 1000 + (worker * 100_000) + !fresh in
      let deadline =
        if soak_rand_float rng < 0.5 then
          Printf.sprintf {|, "deadline_ms": %d|} soak_deadline_ms
        else ""
      in
      ignore
        (soak_send t tally
           (Printf.sprintf {|{"id": %d, "kernel": %S, "size": %d%s}|} i kernel
              size deadline)
           ~hostile:false)
    end
    else begin
      (* warm population traffic over the full registry *)
      let kernel = registry.(soak_rand rng mod Array.length registry) in
      let model =
        if soak_rand_float rng < 0.2 then {|, "model": "nofuse"|} else ""
      in
      let deadline =
        if soak_rand_float rng < 0.3 then
          Printf.sprintf {|, "deadline_ms": %d|} soak_deadline_ms
        else ""
      in
      ignore
        (soak_send t tally
           (Printf.sprintf {|{"id": %d, "kernel": %S, "size": 8%s%s}|} i kernel
              model deadline)
           ~hostile:false)
    end
  done;
  tally

(* (key, result-payload) for one registry kernel; the pair whose byte
   identity across servers and across the soak is the core guarantee *)
let soak_payload t kernel =
  let line = Printf.sprintf {|{"id": 0, "kernel": %S, "size": 8}|} kernel in
  match Serve.Server.handle_line t line with
  | None -> ("", "", "none")
  | Some r -> (
    match Obs.Json.parse r with
    | Error _ -> ("", "", "unparseable")
    | Ok j ->
      let str f = Option.bind (Obs.Json.member f j) Obs.Json.to_string_opt in
      let result =
        match Obs.Json.member "result" j with
        | Some v -> Obs.Json.to_string v
        | None -> ""
      in
      ( Option.value (str "key") ~default:"",
        result,
        Option.value (str "cache") ~default:"?" ))

let soak_config () =
  { Serve.Server.default_config with
    domains = 4;
    cache_capacity = 1024;
    (* low-water admission: with 4 soaking domains the gauge crosses it
       under bursts, so shedding is exercised, not just configured *)
    max_pending = 3;
    (* no server default deadline: only the requests that ask for one
       carry deadline/overrun accounting, which keeps the overrun
       population well-defined *)
    default_deadline_ms = None;
  }

type soak_stats = {
  kdomains : int;
  ksent : int;
  khostile : int;
  khits : int;
  kcold : int;
  kuncached : int;
  kerrs : (string * int) list;
  kuntyped : int;
  kcrashes : int;
  kraises : int;
  kexhausts : int;
  kslows : int;
  kshed : int;
  krecovered : int;
  ktrips : int;
  krejects : int;
  koverrun_samples : int;
  koverrun_p99_ms : float;
  kwarm_identity : bool;
  kwarm_hits : bool;
  kcold_identity : bool;
  kwall_s : float;
  kscrapes : int; (* live "metrics" ops answered during the soak *)
  kmono : bool; (* scrape totals never decreased (across recoveries) *)
  ktel_requests : int; (* final scraped requests_total *)
  kledger : bool; (* scrape totals == driver ledger, per outcome *)
}

let run_soak () =
  let t0 = Linalg.Clock.now () in
  let registry = soak_registry () in
  let workers = 4 in
  let per_worker = if smoke then 100 else 600 in

  (* phase 0: unfaulted reference payloads from a pristine server *)
  let reference =
    let fresh = Serve.Server.create ~config:(soak_config ()) () in
    List.map (fun k -> (k, soak_payload fresh k)) registry
  in

  let t = Serve.Server.create ~config:(soak_config ()) () in

  (* phase 1: seed the soak server's cache with the registry, so the
     identity population is warm before any fault is armed *)
  List.iter (fun k -> ignore (soak_payload t k)) registry;

  (* phase 2: poison pill — one unique fingerprint fails [threshold]
     times in a row, which must trip the breaker; the next request for
     it must be rejected without touching the solver *)
  let threshold = (soak_config ()).Serve.Server.breaker_threshold in
  let pill_faults = Linalg.Chaos.(queue (List.init threshold (fun _ -> Raise))) in
  let pill = {|{"id": 0, "kernel": "gemver", "size": 9973}|} in
  let pill_tally = soak_fresh_tally () in
  Linalg.Chaos.arm ~faults:pill_faults (fun () ->
      for _ = 1 to threshold + 1 do
        ignore (soak_send t pill_tally pill ~hostile:true)
      done);

  (* phase 3: the concurrent soak — probabilistic faults on cold solves,
     four worker domains firing the mixed request stream *)
  let chaos_mutex = Mutex.create () in
  let chaos_rng = ref 0x2545F4914F6CDD1DL in
  let storm =
    Linalg.Chaos.sampled (fun () ->
        Mutex.lock chaos_mutex;
        let r = soak_rand_float chaos_rng in
        let ms = 40 + (soak_rand chaos_rng mod 60) in
        Mutex.unlock chaos_mutex;
        if r < 0.04 then Some Linalg.Chaos.Raise
        else if r < 0.08 then Some Linalg.Chaos.Exhaust
        else if r < 0.12 then Some (Linalg.Chaos.Slow ms)
        else None)
  in
  let tallies =
    Linalg.Chaos.arm ~faults:storm (fun () ->
        List.init workers (fun w ->
            Domain.spawn (fun () -> soak_worker t ~worker:w ~count:per_worker))
        |> List.map Domain.join)
  in
  (* faults handed out by both plans; shed and recovered are the soak
     server's own totals over every domain *)
  let injected count = count pill_faults + count storm in
  let raises = injected Linalg.Chaos.raises in
  let exhausts = injected Linalg.Chaos.exhausts in
  let slows = injected Linalg.Chaos.slows in
  let shed = Serve.Server.shed t in
  let recovered = Serve.Server.recovered t in
  let tallies = pill_tally :: tallies in

  (* phase 4: identity after the storm — the soak server must still
     serve the registry byte-identically to the unfaulted reference
     (warm), and a brand-new server in the same process must reproduce
     it cold (no poisoned global state survived) *)
  let warm = List.map (fun k -> (k, soak_payload t k)) registry in
  let cold_t = Serve.Server.create ~config:(soak_config ()) () in
  let cold = List.map (fun k -> (k, soak_payload cold_t k)) registry in
  let same a b =
    List.for_all2
      (fun (k1, (key1, res1, _)) (k2, (key2, res2, _)) ->
        k1 = k2 && key1 = key2 && res1 = res2 && res1 <> "")
      a b
  in
  let warm_identity = same reference warm in
  let warm_hits = List.for_all (fun (_, (_, _, c)) -> c = "hit") warm in
  let cold_identity = same reference cold in

  (* merge the per-worker tallies *)
  let sum f = List.fold_left (fun a tl -> a + f tl) 0 tallies in
  let errs = Hashtbl.create 16 in
  List.iter
    (fun tl ->
      Hashtbl.iter
        (fun code n ->
          Hashtbl.replace errs code
            (n + Option.value (Hashtbl.find_opt errs code) ~default:0))
        tl.errs)
    tallies;
  let overruns =
    Array.of_list (List.concat_map (fun tl -> tl.overruns) tallies)
  in
  Array.sort compare overruns;

  (* telemetry ledger reconciliation: the final scrape totals must
     match the driver's own ledger EXACTLY — hostile lines, faulted
     solves, shed and breaker-rejected requests included.  The code ->
     outcome mapping below re-derives [Serve.Telemetry]'s classification
     independently, so agreement is evidence, not tautology.  The
     server answered: the phase-1 seeds (all cold), every tallied line
     (pill + workers + in-soak scrapes), and the phase-4 warm reads
     (all hits, asserted separately). *)
  let tel = Serve.Server.telemetry t in
  let seeds = List.length registry in
  let tel_requests = Serve.Telemetry.requests_total tel in
  let classify_code = function
    | "overloaded" -> "shed"
    | "oversized" -> "oversized"
    | "breaker" -> "breaker"
    | "internal" -> "internal"
    | "draining" -> "draining"
    | "parse" -> "parse"
    | "usage" -> "usage"
    | c when String.contains c ':' -> "diagnostic"
    | _ -> "error"
  in
  let err_expect label =
    Hashtbl.fold
      (fun c n acc -> if classify_code c = label then acc + n else acc)
      errs 0
  in
  let ot l = Serve.Telemetry.outcome_total tel l in
  let ledger_rows =
    [ ("requests", sum (fun tl -> tl.sent) + (2 * seeds), tel_requests);
      ("hit", sum (fun tl -> tl.hits) + seeds, ot "hit" + ot "coalesced");
      ("cold", sum (fun tl -> tl.cold) + seeds, ot "cold");
      ("degraded", sum (fun tl -> tl.uncache), ot "degraded");
      ("op:metrics", sum (fun tl -> tl.scrapes),
       Serve.Telemetry.op_total tel "metrics") ]
    @ List.map
        (fun l -> (l, err_expect l, ot l))
        [ "shed"; "oversized"; "breaker"; "internal"; "draining"; "parse";
          "usage"; "diagnostic"; "error" ]
  in
  let sum_assoc l = List.fold_left (fun a (_, v) -> a + v) 0 l in
  let outcome_op_sum =
    sum_assoc (Serve.Telemetry.outcome_totals tel)
    + sum_assoc (Serve.Telemetry.op_totals tel)
  in
  let ledger = ref (tel_requests = outcome_op_sum) in
  if not !ledger then
    Printf.printf
      "  telemetry MISMATCH: requests_total %d <> outcome+op sum %d\n%!"
      tel_requests outcome_op_sum;
  List.iter
    (fun (name, expect, got) ->
      if expect <> got then begin
        ledger := false;
        Printf.printf "  telemetry MISMATCH: %s ledger %d, scrape %d\n%!" name
          expect got
      end)
    ledger_rows;
  let mono = List.for_all (fun tl -> tl.mono) tallies in

  let breaker = Serve.Server.breaker t in
  {
    kdomains = workers;
    ksent = sum (fun tl -> tl.sent);
    khostile = sum (fun tl -> tl.hostile);
    khits = sum (fun tl -> tl.hits);
    kcold = sum (fun tl -> tl.cold);
    kuncached = sum (fun tl -> tl.uncache);
    kerrs =
      Hashtbl.fold (fun c n acc -> (c, n) :: acc) errs []
      |> List.sort compare;
    kuntyped = sum (fun tl -> tl.untyped);
    kcrashes = sum (fun tl -> tl.crashes);
    kraises = raises;
    kexhausts = exhausts;
    kslows = slows;
    kshed = shed;
    krecovered = recovered;
    ktrips = Serve.Breaker.trips breaker;
    krejects = Serve.Breaker.rejects breaker;
    koverrun_samples = Array.length overruns;
    koverrun_p99_ms =
      (if Array.length overruns = 0 then nan else percentile overruns 0.99);
    kwarm_identity = warm_identity;
    kwarm_hits = warm_hits;
    kcold_identity = cold_identity;
    kwall_s = Linalg.Clock.elapsed_ms ~since:t0 /. 1e3;
    kscrapes = sum (fun tl -> tl.scrapes);
    kmono = mono;
    ktel_requests = tel_requests;
    kledger = !ledger;
  }

let soak_fault_share st =
  float_of_int (st.khostile + st.kraises + st.kexhausts + st.kslows)
  /. float_of_int st.ksent

let soak_table st =
  Printf.printf
    "  %d requests over %d domains in %.1f s: %d hits, %d misses, %d \
     uncached, %d hostile lines\n"
    st.ksent st.kdomains st.kwall_s st.khits st.kcold st.kuncached st.khostile;
  Printf.printf "  injected faults: %d raises, %d exhausts, %d slows (fault \
                 share %.1f%%)\n"
    st.kraises st.kexhausts st.kslows
    (100.0 *. soak_fault_share st);
  Printf.printf "  typed errors:";
  List.iter (fun (c, n) -> Printf.printf " %s=%d" c n) st.kerrs;
  Printf.printf "\n  untyped %d, crashes %d, shed %d, recovered %d, breaker \
                 trips %d / rejects %d\n"
    st.kuntyped st.kcrashes st.kshed st.krecovered st.ktrips st.krejects;
  Printf.printf
    "  deadline overrun p99 %.1f ms over %d samples (bound %d ms)\n"
    st.koverrun_p99_ms st.koverrun_samples (2 * soak_deadline_ms);
  Printf.printf
    "  telemetry: %d live scrapes, monotone %b, requests_total %d, ledger \
     reconciled %b\n"
    st.kscrapes st.kmono st.ktel_requests st.kledger;
  Printf.printf
    "  identity after soak: warm %b (all hits %b), fresh-server cold %b\n%!"
    st.kwarm_identity st.kwarm_hits st.kcold_identity

(* The survival bounds, checked on the run just made. Every bound is
   machine-independent: counts, shares and identity booleans from one
   run; the only time-like bound (overrun p99) is relative to the
   deadline the run itself requested. A number that is not finite
   fails its bound: it proves nothing about the daemon. Exits 1 naming
   each violated bound. *)
let soak_gate st =
  let failed = ref [] in
  let report name ok verdict =
    Printf.printf "  %-36s %s\n" name verdict;
    if not ok then failed := name :: !failed
  in
  let bound name v =
    match v with
    | Bench_check.Bad_value -> report name false "not a finite number  FAIL"
    | v -> report name (not (Bench_check.bound_failure v)) (Bench_check.describe_bound v)
  in
  let must name ok = report name ok (if ok then "OK" else "FAIL") in
  let at_most ceiling n = Bench_check.check_max ~ceiling ~value:(float_of_int n) in
  let at_least floor n = Bench_check.check_min ~floor ~value:(float_of_int n) in
  bound "crashes = 0" (at_most 0.0 st.kcrashes);
  bound "untyped responses = 0" (at_most 0.0 st.kuntyped);
  bound "fault share >= 0.10"
    (Bench_check.check_min ~floor:0.10 ~value:(soak_fault_share st));
  bound "overrun p99 <= 2 x deadline"
    (Bench_check.check_max
       ~ceiling:(float_of_int (2 * soak_deadline_ms))
       ~value:st.koverrun_p99_ms);
  bound "overrun samples > 0" (at_least 1.0 st.koverrun_samples);
  bound "breaker trips >= 1" (at_least 1.0 st.ktrips);
  bound "breaker rejects >= 1" (at_least 1.0 st.krejects);
  bound "firewall recoveries >= 1" (at_least 1.0 st.krecovered);
  bound "live scrapes >= 1" (at_least 1.0 st.kscrapes);
  must "scrape totals monotone" st.kmono;
  must "telemetry ledger reconciled" st.kledger;
  must "warm identity after soak" st.kwarm_identity;
  must "fresh-server cold identity" st.kcold_identity;
  match List.rev !failed with
  | [] -> Printf.printf "  OK: the daemon survived the soak within bounds\n%!"
  | names ->
    Printf.printf "  FAIL: soak survival bounds violated: %s\n%!"
      (String.concat "; " names);
    exit 1

let soak_bench () =
  section "Soak: chaos + hostile traffic against the hardened daemon";
  let st = run_soak () in
  soak_table st;
  soak_gate st

(* --- driver -------------------------------------------------------------------- *)

let experiments =
  [ ("table1", table1); ("table2", table2); ("fig1", fig1); ("fig3", fig3);
    ("fig5", fig5); ("fig4_6", fig4_6); ("fig7", fig7); ("fig8", fig8);
    ("scaling", scaling); ("ablation", ablation); ("extras", extras);
    ("tiling", tiling); ("locality", locality); ("space", space);
    ("vector", vector); ("budget", budget_overhead);
    ("telemetry", telemetry_overhead); ("soak", soak_bench) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun n ->
        match List.assoc_opt n experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %s; known: %s\n" n
            (String.concat " " (List.map fst experiments));
          exit 1)
      names
