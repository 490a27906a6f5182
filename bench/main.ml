(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 5) on the machine model, then times the
   optimization pipeline itself with Bechamel (one Test.make per
   table/figure).

     dune exec bench/main.exe                      - everything
     dune exec bench/main.exe -- fig7              - a single experiment
     dune exec bench/main.exe -- pipeline --check  - regression gate:
       fresh pipeline timings vs the last committed non-smoke record in
       BENCH_pipeline.json; exits non-zero on a >25% per-kernel
       wall-time regression
   Experiments: table1 table2 fig1 fig3 fig5 fig4_6 fig7 fig8 scaling
                ablation extras tiling locality space vector bechamel *)

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
  let icc_part = Array.make (Array.length prog.Scop.Program.stmts) 0 in
  List.iteri
    (fun idx (nst : Icc.Icc_model.nest) ->
      List.iter (fun id -> icc_part.(id) <- idx) nst.Icc.Icc_model.stmts)
    icc.Icc.Icc_model.nests;
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
  let cands = Fusion.Search.best ~limit:64 mini3 in
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

(* --- end-to-end pipeline timings + BENCH_pipeline.json ------------------------ *)

(* Smoke mode (BENCH_SMOKE=1, used by CI) runs one repetition per kernel
   and a short Bechamel quota so the job finishes in seconds. *)
let smoke =
  match Sys.getenv_opt "BENCH_SMOKE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* The ILP-heavy kernels first: swim and gemsfdtd dominate the exact
   arithmetic time (20+ statements, hundreds of LP solves each). *)
let pipeline_kernels =
  [ ("swim", fun () -> Kernels.Swim.program ~n:24 ());
    ("gemsfdtd", fun () -> Kernels.Gemsfdtd.program ~n:10 ());
    ("advect", fun () -> Kernels.Advect.program ~n:16 ());
    ("gemver", fun () -> Kernels.Gemver.program ~n:20 ()) ]

type pipeline_row = {
  kernel : string;
  wall_ms : float; (* best-of-reps wall time of one full scheduler run *)
  counters : (string * int) list; (* counters of the best repetition *)
  stages : (string * float) list; (* stage seconds of the best repetition *)
}

let time_pipeline_kernel (name, mk) =
  let cfg = scheduler_config Wisefuse in
  let prog = mk () in
  Pluto.Farkas.reset_cache ();
  ignore (Pluto.Scheduler.run cfg prog) (* warm-up *);
  let reps = if smoke then 1 else 3 in
  let best = ref infinity in
  let best_counters = ref [] and best_stages = ref [] in
  for _ = 1 to reps do
    (* each repetition pays its own Farkas eliminations and reports its
       own counters; wall time, counters and stages all describe the
       same (fastest) run instead of mixing best-of with averages *)
    Pluto.Farkas.reset_cache ();
    Linalg.Counters.reset ();
    let t0 = Linalg.Clock.now () in
    ignore (Pluto.Scheduler.run cfg prog);
    let dt = Linalg.Clock.now () -. t0 in
    let stages = Linalg.Counters.stage_times () in
    (* stage timers are exclusive (self-time), so their sum is bounded
       by the wall time of the run that produced them; a violation
       means the accounting regressed to overlapping timers *)
    let stage_sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 stages in
    if stage_sum > (dt *. 1.02) +. 1e-4 then
      failwith
        (Printf.sprintf
           "%s: stage times sum to %.2f ms > %.2f ms wall (overlapping timers?)"
           name (stage_sum *. 1e3) (dt *. 1e3));
    if dt < !best then begin
      best := dt;
      best_counters := Linalg.Counters.all_counters ();
      best_stages := stages
    end
  done;
  {
    kernel = name;
    wall_ms = !best *. 1e3;
    counters = !best_counters;
    stages = !best_stages;
  }

let bench_json_file = "BENCH_pipeline.json"

(* BENCH_TRACE=1 embeds per-stage span self/total times ("spans") into
   each kernel record, from one extra traced run per kernel that never
   touches the timed repetitions. *)
let embed_spans =
  match Sys.getenv_opt "BENCH_TRACE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* One run record as a JSON value; [spans] maps kernel name to a spans
   object when BENCH_TRACE asked for one. *)
let pipeline_record ?(tag = "") ?(spans = []) rows =
  let open Obs.Json in
  let label =
    Option.value (Sys.getenv_opt "BENCH_LABEL") ~default:"dev" ^ tag
  in
  let total = List.fold_left (fun a r -> a +. r.wall_ms) 0.0 rows in
  let kernel_obj r =
    let fields =
      (("wall_ms", Float (round2 r.wall_ms))
       :: List.map (fun (n, v) -> (n, Int v)) r.counters)
      @ List.map (fun (n, s) -> (n ^ "_ms", Float (round2 (s *. 1e3)))) r.stages
    in
    let fields =
      match List.assoc_opt r.kernel spans with
      | Some sp -> fields @ [ ("spans", sp) ]
      | None -> fields
    in
    (r.kernel, Obj fields)
  in
  Obj
    [ ("label", Str label); ("smoke", Bool smoke);
      ("kernels", Obj (List.map kernel_obj rows));
      ("total_wall_ms", Float (round2 total)) ]

(* --- reading the record file back (for dedup and the gate) -------------- *)

let record_label r = Option.bind (Obs.Json.member "label" r) Obs.Json.to_string_opt
let record_smoke r = Option.bind (Obs.Json.member "smoke" r) Obs.Json.to_bool_opt

(* wall_ms of one kernel inside a record *)
let kernel_wall record kernel =
  let open Obs.Json in
  Option.bind (member "kernels" record) (fun ks ->
      Option.bind (member kernel ks) (fun k ->
          Option.bind (member "wall_ms" k) to_float_opt))

let read_bench_file () =
  if Sys.file_exists bench_json_file then begin
    let ic = open_in_bin bench_json_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obs.Json.parse s with
    | Error msg -> failwith (Printf.sprintf "%s: %s" bench_json_file msg)
    | Ok doc ->
      (match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list_opt with
      | Some runs -> runs
      | None -> failwith (bench_json_file ^ {|: no "runs" array|}))
  end
  else []

(* Append the new run, replacing any earlier record with the same label
   (so re-runs — e.g. a restarted CI job — update their record in place
   instead of accumulating duplicates). *)
(* Analyze records share the file but time wisecheck certification, not
   the scheduler; the regression gate must never compare against one. *)
let analyze_tag = "-analyze"

let is_analyze_record r =
  match record_label r with
  | Some l ->
    let n = String.length l and m = String.length analyze_tag in
    n >= m && String.sub l (n - m) m = analyze_tag
  | None -> false

let write_pipeline_json ?tag ?spans rows =
  let run = pipeline_record ?tag ?spans rows in
  let label = Option.value (record_label run) ~default:"dev" in
  let kept =
    List.filter (fun r -> record_label r <> Some label) (read_bench_file ())
  in
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.Int 1);
        ( "unit",
          Obs.Json.Str
            "wall milliseconds per wisefuse scheduler run (best of N)" );
        ("runs", Obs.Json.List (kept @ [ run ])) ]
  in
  let oc = open_out_bin bench_json_file in
  output_string oc (Obs.Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "  wrote %s (label %S)\n%!" bench_json_file label

let pipeline_table rows =
  Printf.printf "  %-10s %10s %9s %9s %9s %8s %8s %9s\n" "kernel" "wall ms"
    "lp solves" "pivots" "dual piv" "warm" "fallback" "farkas h/m";
  List.iter
    (fun r ->
      let c n = try List.assoc n r.counters with Not_found -> 0 in
      Printf.printf "  %-10s %10.2f %9d %9d %9d %8d %8d %5d/%d\n%!" r.kernel
        r.wall_ms (c "lp_solves") (c "lp_pivots") (c "dual_pivots")
        (c "warm_starts") (c "warm_fallbacks") (c "farkas_cache_hits")
        (c "farkas_cache_misses"))
    rows;
  let total = List.fold_left (fun a r -> a +. r.wall_ms) 0.0 rows in
  Printf.printf "  %-10s %10.2f\n" "total" total

(* One traced (untimed) run of a kernel; its per-stage span summary as
   a {"<stage>": {"self_ms", "total_ms"}} object for the bench record. *)
let trace_spans (name, mk) =
  let cfg = scheduler_config Wisefuse in
  let prog = mk () in
  Pluto.Farkas.reset_cache ();
  Linalg.Counters.reset ();
  ignore (Obs.Trace.with_recording (fun () -> Pluto.Scheduler.run cfg prog));
  Obs.Trace.disable ();
  let span (stage, self, total) =
    ( stage,
      Obs.Json.Obj
        [ ("self_ms", Obs.Json.Float (Obs.Json.round2 (self *. 1e3)));
          ("total_ms", Obs.Json.Float (Obs.Json.round2 (total *. 1e3))) ] )
  in
  (name, Obs.Json.Obj (List.map span (Obs.Trace.summary ~cat:"stage" ())))

let pipeline () =
  section
    "Pipeline: end-to-end wisefuse scheduling time (exact-arithmetic hot path)";
  let rows = List.map time_pipeline_kernel pipeline_kernels in
  pipeline_table rows;
  let spans =
    if embed_spans then Some (List.map trace_spans pipeline_kernels) else None
  in
  write_pipeline_json ?spans rows

(* Regression gate (CI, non-blocking): time a fresh run and compare each
   kernel against the last committed non-smoke record. Exits non-zero on
   a >25% wall-time regression for any kernel. Absolute times are only
   meaningful on the machine that produced the baseline, which is why
   the CI step that runs this is advisory. *)
let check_threshold = 1.25

let pipeline_check () =
  section "Pipeline check: fresh run vs last committed BENCH record";
  let baseline =
    List.rev (read_bench_file ())
    |> List.find_opt (fun r ->
           record_smoke r = Some false && not (is_analyze_record r))
  in
  match baseline with
  | None ->
    Printf.printf "  no non-smoke baseline record in %s; nothing to check\n"
      bench_json_file
  | Some base ->
    let blabel = Option.value (record_label base) ~default:"?" in
    Printf.printf "  baseline: %S\n%!" blabel;
    let rows = List.map time_pipeline_kernel pipeline_kernels in
    pipeline_table rows;
    let failed = ref false in
    List.iter
      (fun r ->
        let baseline_ms = kernel_wall base r.kernel in
        let v =
          Bench_check.compare_wall ~threshold:check_threshold ~baseline_ms
            ~current_ms:r.wall_ms
        in
        (match (v, baseline_ms) with
        | (Bench_check.Within _ | Bench_check.Regression _), Some bw ->
          Printf.printf "  %-10s %10.2f ms vs %10.2f ms  %s\n" r.kernel
            r.wall_ms bw (Bench_check.describe v)
        | _ -> Printf.printf "  %-10s %s\n" r.kernel (Bench_check.describe v));
        if Bench_check.is_failure v then failed := true)
      rows;
    if !failed then begin
      Printf.printf "  FAIL: wall-time regression above x%.2f\n" check_threshold;
      exit 1
    end
    else Printf.printf "  OK: all kernels within x%.2f of baseline\n" check_threshold

(* --- wisecheck static-analysis overhead ---------------------------------------- *)

(* Times Analysis.Wisecheck.certify (race + scan + lint certification)
   over the final wisefuse schedule and AST of each pipeline kernel.
   Scheduling happens once, untimed, so the measured wall time is pure
   analysis cost; the row's counters therefore describe the certify run
   alone (LP solves spent on conflict systems, finding tallies). Rows
   land in BENCH_pipeline.json under the "<label>-analyze" record,
   which the regression gate skips. Feeds the "Static analysis" entry
   in EXPERIMENTS.md. Exits non-zero if any kernel fails to certify —
   a certified-clean registry is part of the pipeline contract. *)
let analyze_overhead () =
  section "Analyze: wisecheck certification time (race + scan + lints)";
  (* reduction-aware runs: the reduction kernels join the pipeline set
     and the optimizer schedules with the proofs applied, so the
     record's reductions_detected / reductions_certified counters
     describe real certifications, not zeros *)
  let kernels =
    pipeline_kernels
    @ [ ("gemmacc", fun () -> Kernels.Gemmacc.program ~n:10 ());
        ("covariance", fun () -> Kernels.Covariance.program ~n:10 ()) ]
  in
  let rows =
    List.map
      (fun (name, mk) ->
        let prog = mk () in
        Pluto.Farkas.reset_cache ();
        let o =
          Fusion.Model.optimize ~reductions:true Fusion.Model.Wisefuse prog
        in
        let r =
          match o.Fusion.Model.scheduler with
          | Some r -> r
          | None -> failwith "wisefuse model returned no scheduler result"
        in
        let certify () =
          Analysis.Wisecheck.certify r.Pluto.Scheduler.prog
            r.Pluto.Scheduler.all_deps r.Pluto.Scheduler.sched
            o.Fusion.Model.ast
        in
        ignore (certify ()) (* warm-up *);
        let reps = if smoke then 1 else 3 in
        let best = ref infinity in
        let best_counters = ref [] and best_stages = ref [] in
        let report = ref None in
        for _ = 1 to reps do
          Linalg.Counters.reset ();
          let t0 = Linalg.Clock.now () in
          let rep = certify () in
          let dt = Linalg.Clock.now () -. t0 in
          if dt < !best then begin
            best := dt;
            best_counters := Linalg.Counters.all_counters ();
            best_stages := Linalg.Counters.stage_times ();
            report := Some rep
          end
        done;
        let rep = Option.get !report in
        Printf.printf "  %-10s %8.2f ms   %d errors, %d warnings, %d info\n%!"
          name (!best *. 1e3) rep.Analysis.Wisecheck.errors
          rep.Analysis.Wisecheck.warnings rep.Analysis.Wisecheck.infos;
        if not (Analysis.Wisecheck.certified rep) then begin
          Printf.printf "  FAIL: wisecheck reported errors on %s\n" name;
          exit 1
        end;
        {
          kernel = name;
          wall_ms = !best *. 1e3;
          counters = !best_counters;
          stages = !best_stages;
        })
      kernels
  in
  let total = List.fold_left (fun a r -> a +. r.wall_ms) 0.0 rows in
  Printf.printf "  %-10s %8.2f ms\n" "total" total;
  write_pipeline_json ~tag:analyze_tag rows

(* --- budget accounting overhead ----------------------------------------------- *)

(* Times the wisefuse scheduler with no budget against a generous one
   that never trips, so the difference is pure accounting cost (one
   latch check per simplex pivot and branch-and-bound node). Feeds the
   "Robustness" entry in EXPERIMENTS.md; expected well under 2%. *)
let budget_overhead () =
  section "Budget accounting overhead (generous budget vs none)";
  let cfg = scheduler_config Wisefuse in
  List.iter
    (fun (name, mk) ->
      let prog = mk () in
      Pluto.Farkas.reset_cache ();
      ignore (Pluto.Scheduler.run cfg prog) (* warm-up *);
      let reps = if smoke then 1 else 5 in
      let time budget =
        let best = ref infinity in
        for _ = 1 to reps do
          Pluto.Farkas.reset_cache ();
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
    pipeline_kernels

(* --- tracing overhead ---------------------------------------------------------- *)

(* Times the wisefuse scheduler against the null sink and against a
   recording tracer. The null-sink column is the instrumented hot path
   paying only its `if Obs.Trace.on ()` guards (the ≤2% budget of the
   observability layer); the traced column adds event construction and
   buffering. Feeds the "Observability" entry in EXPERIMENTS.md. *)
let trace_overhead () =
  section "Tracing overhead (recording tracer vs null sink)";
  let cfg = scheduler_config Wisefuse in
  List.iter
    (fun (name, mk) ->
      let prog = mk () in
      Obs.Trace.disable ();
      Pluto.Farkas.reset_cache ();
      ignore (Pluto.Scheduler.run cfg prog) (* warm-up *);
      let reps = if smoke then 1 else 5 in
      let time traced =
        let best = ref infinity in
        for _ = 1 to reps do
          Pluto.Farkas.reset_cache ();
          if traced then Obs.Trace.enable ();
          let t0 = Linalg.Clock.now () in
          ignore (Pluto.Scheduler.run cfg prog);
          let dt = Linalg.Clock.now () -. t0 in
          Obs.Trace.disable ();
          if dt < !best then best := dt
        done;
        !best *. 1e3
      in
      let off = time false in
      let on = time true in
      Printf.printf
        "  %-10s %8.2f ms untraced  %8.2f ms traced  (%+5.2f%%, %d events)\n%!"
        name off on
        ((on -. off) /. off *. 100.0)
        (Obs.Trace.event_count ()))
    pipeline_kernels

(* --- serving: heavy traffic against the wiseserve daemon ---------------------- *)

(* Drives Serve.Server.handle_line in-process with thousands of
   line-delimited JSON requests under three key-popularity skews
   (uniform, zipf, hot) and records hit rate and per-class latency
   percentiles in BENCH_serve.json. The cold-solve population is the
   full registry x all five fusion models at the registry model sizes
   (smoke: the four pipeline kernels at their pipeline sizes, so the CI
   step stays fast). Every hit response is checked to report zero
   solver work — the cache serving schedules without touching the ILP
   is the entire point of the daemon. *)

let serve_bench_file = "BENCH_serve.json"

(* xorshift64*: deterministic request sequence, no dependence on the
   stdlib Random state *)
let serve_rng = ref 0x9E3779B97F4A7C15L

let serve_rand () =
  let open Int64 in
  let x = !serve_rng in
  let x = logxor x (shift_left x 13) in
  let x = logxor x (shift_right_logical x 7) in
  let x = logxor x (shift_left x 17) in
  serve_rng := x;
  to_int (shift_right_logical x 2)

let serve_rand_float () = float_of_int (serve_rand () land 0xFFFFFF) /. 16777216.0

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(int_of_float (Float.round (p *. float_of_int (n - 1))))

(* the request population: (kernel, size option) pairs crossed with the
   five models *)
let serve_population () =
  let kernels =
    if smoke then
      List.map (fun (k, _) -> (k, None)) pipeline_kernels
      |> List.map (fun (k, _) ->
             ( k,
               Some
                 (match k with
                 | "swim" -> 24
                 | "gemsfdtd" -> 10
                 | "advect" -> 16
                 | _ -> 20) ))
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

(* key index under each skew; [n] is the population size *)
let pick_uniform n = serve_rand () mod n

let pick_zipf weights total =
  let x = serve_rand_float () *. total in
  let rec go i acc =
    if i >= Array.length weights - 1 then i
    else
      let acc = acc +. weights.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let pick_hot n =
  (* 90% of traffic on 5 hot keys, the tail uniform over everything *)
  if serve_rand_float () < 0.9 then serve_rand () mod min 5 n
  else serve_rand () mod n

type serve_sample = { hit : bool; us : float }

let serve_field resp path =
  let rec go j = function
    | [] -> Some j
    | f :: rest -> Option.bind (Obs.Json.member f j) (fun v -> go v rest)
  in
  go resp path

let serve_run_mix t population ~skew ~count =
  let pop = Array.of_list population in
  let n = Array.length pop in
  let weights =
    Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) 1.1)
  in
  let wtotal = Array.fold_left ( +. ) 0.0 weights in
  let samples = ref [] in
  let bad_hits = ref 0 in
  for i = 1 to count do
    let idx =
      match skew with
      | `Uniform -> pick_uniform n
      | `Zipf -> pick_zipf weights wtotal
      | `Hot -> pick_hot n
    in
    let line = serve_request_line ~id:i pop.(idx) in
    let t0 = Linalg.Clock.now () in
    let resp = Serve.Server.handle_line t line in
    let us = (Linalg.Clock.now () -. t0) *. 1e6 in
    match resp with
    | None -> failwith "serve bench: daemon returned nothing for a request"
    | Some r -> (
      match Obs.Json.parse r with
      | Error msg -> failwith ("serve bench: unparseable response: " ^ msg)
      | Ok j ->
        (match
           Option.bind (serve_field j [ "status" ]) Obs.Json.to_string_opt
         with
        | Some "ok" -> ()
        | _ -> failwith ("serve bench: error response: " ^ r));
        let hit =
          Option.bind (serve_field j [ "cache" ]) Obs.Json.to_string_opt
          = Some "hit"
        in
        (* a hit must report zero solver work: the counters are the
           proof that cached schedules bypass the LP/B&B machinery *)
        if hit then begin
          let solver_work name =
            Option.value ~default:0
              (Option.bind (serve_field j [ "serve"; name ]) Obs.Json.to_int_opt)
          in
          if
            List.exists
              (fun c -> solver_work c <> 0)
              [ "lp_solves"; "lp_pivots"; "dual_pivots"; "ilp_solves"; "bb_nodes" ]
          then incr bad_hits
        end;
        samples := { hit; us } :: !samples)
  done;
  (List.rev !samples, !bad_hits)

let serve_percentiles samples =
  let a = Array.of_list (List.map (fun s -> s.us) samples) in
  Array.sort compare a;
  (percentile a 0.5, percentile a 0.99)

let serve_class_stats samples =
  let hits = List.filter (fun s -> s.hit) samples in
  let cold = List.filter (fun s -> not s.hit) samples in
  let h50, h99 = serve_percentiles hits in
  let c50, c99 = serve_percentiles cold in
  let o50, o99 = serve_percentiles samples in
  (List.length hits, List.length cold, (h50, h99), (c50, c99), (o50, o99))

type serve_stats = {
  srequests : int;
  shits : int;
  scold : int;
  hit_p50_us : float;
  hit_p99_us : float;
  cold_p50_us : float;
  cold_p99_us : float;
  all_p50_us : float;
  all_p99_us : float;
  per_skew : (string * int * int) list; (* skew, requests, hits *)
  zero_solver_hits : bool;
  (* the daemon's own telemetry, read back after the traffic: the
     scrape must reconcile exactly with the driver's ledger, and the
     histogram percentiles must tell the same hit-vs-cold story as the
     driver's sampled wall times *)
  tel_reconciled : bool;
  tel_hit_p50_us : float;
  tel_hit_p99_us : float;
  tel_cold_p50_us : float;
  tel_cold_p99_us : float;
}

let run_serve_traffic () =
  serve_rng := 0x9E3779B97F4A7C15L;
  let population = serve_population () in
  let t = Serve.Server.create () in
  let per_mix = if smoke then 50 else 800 in
  let all_samples = ref [] in
  let per_skew = ref [] in
  let bad = ref 0 in
  List.iter
    (fun (tag, skew) ->
      let samples, bad_hits = serve_run_mix t population ~skew ~count:per_mix in
      bad := !bad + bad_hits;
      let hits = List.length (List.filter (fun s -> s.hit) samples) in
      Printf.printf "  %-8s %5d requests  %5d hits  (%.1f%% hit rate)\n%!" tag
        per_mix hits
        (100.0 *. float_of_int hits /. float_of_int per_mix);
      per_skew := (tag, per_mix, hits) :: !per_skew;
      all_samples := !all_samples @ samples)
    [ ("uniform", `Uniform); ("zipf", `Zipf); ("hot", `Hot) ];
  let samples = !all_samples in
  let nhits, ncold, (h50, h99), (c50, c99), (o50, o99) =
    serve_class_stats samples
  in
  if !bad > 0 then begin
    Printf.printf
      "  FAIL: %d cache hits reported non-zero solver counters\n" !bad;
    exit 1
  end;
  (* reconcile the daemon's telemetry against the driver's own ledger:
     every answered line was a schedule response, so requests_total,
     hit (+coalesced, though this single-domain driver never
     coalesces) and cold must match exactly *)
  let tel = Serve.Server.telemetry t in
  let requests = List.length samples in
  let tel_hits =
    Serve.Telemetry.outcome_total tel "hit"
    + Serve.Telemetry.outcome_total tel "coalesced"
  in
  let tel_cold = Serve.Telemetry.outcome_total tel "cold" in
  let reconciled =
    Serve.Telemetry.requests_total tel = requests
    && tel_hits = nhits && tel_cold = ncold
  in
  if not reconciled then
    Printf.printf
      "  telemetry MISMATCH: scrape says %d requests / %d hits / %d cold, \
       ledger says %d / %d / %d\n%!"
      (Serve.Telemetry.requests_total tel)
      tel_hits tel_cold requests nhits ncold;
  let q cls p = Serve.Telemetry.duration_quantile tel cls p in
  {
    srequests = requests;
    shits = nhits;
    scold = ncold;
    hit_p50_us = h50;
    hit_p99_us = h99;
    cold_p50_us = c50;
    cold_p99_us = c99;
    all_p50_us = o50;
    all_p99_us = o99;
    per_skew = List.rev !per_skew;
    zero_solver_hits = !bad = 0;
    tel_reconciled = reconciled;
    tel_hit_p50_us = q `Hit 0.5;
    tel_hit_p99_us = q `Hit 0.99;
    tel_cold_p50_us = q `Cold 0.5;
    tel_cold_p99_us = q `Cold 0.99;
  }

let serve_record st =
  let open Obs.Json in
  let label = Option.value (Sys.getenv_opt "BENCH_LABEL") ~default:"dev" in
  let r2 v = Float (round2 v) in
  Obj
    [ ("label", Str label); ("smoke", Bool smoke);
      ("requests", Int st.srequests); ("hits", Int st.shits);
      ("misses", Int st.scold);
      ( "hit_rate",
        Float
          (Float.of_string
             (Printf.sprintf "%.4f"
                (float_of_int st.shits /. float_of_int st.srequests))) );
      ("hit_p50_us", r2 st.hit_p50_us); ("hit_p99_us", r2 st.hit_p99_us);
      ("cold_p50_us", r2 st.cold_p50_us); ("cold_p99_us", r2 st.cold_p99_us);
      ("overall_p50_us", r2 st.all_p50_us); ("overall_p99_us", r2 st.all_p99_us);
      ("speedup_p50", r2 (st.cold_p50_us /. st.hit_p50_us));
      ("zero_solver_hits", Bool st.zero_solver_hits);
      ( "telemetry",
        Obj
          [ ("reconciled", Bool st.tel_reconciled);
            ("hist_hit_p50_us", r2 st.tel_hit_p50_us);
            ("hist_hit_p99_us", r2 st.tel_hit_p99_us);
            ("hist_cold_p50_us", r2 st.tel_cold_p50_us);
            ("hist_cold_p99_us", r2 st.tel_cold_p99_us) ] );
      ( "skews",
        Obj
          (List.map
             (fun (tag, reqs, hits) ->
               ( tag,
                 Obj
                   [ ("requests", Int reqs); ("hits", Int hits);
                     ( "hit_rate",
                       Float
                         (Float.of_string
                            (Printf.sprintf "%.4f"
                               (float_of_int hits /. float_of_int reqs))) ) ] ))
             st.per_skew) ) ]

let read_serve_file () =
  if Sys.file_exists serve_bench_file then begin
    let ic = open_in_bin serve_bench_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obs.Json.parse s with
    | Error msg -> failwith (Printf.sprintf "%s: %s" serve_bench_file msg)
    | Ok doc ->
      (match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list_opt with
      | Some runs -> runs
      | None -> failwith (serve_bench_file ^ {|: no "runs" array|}))
  end
  else []

let write_serve_json st =
  let run = serve_record st in
  let label = Option.value (record_label run) ~default:"dev" in
  let kept =
    List.filter (fun r -> record_label r <> Some label) (read_serve_file ())
  in
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.Int 1);
        ( "unit",
          Obs.Json.Str
            "request latency microseconds against the wiseserve daemon" );
        ("runs", Obs.Json.List (kept @ [ run ])) ]
  in
  let oc = open_out_bin serve_bench_file in
  output_string oc (Obs.Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "  wrote %s (label %S)\n%!" serve_bench_file label

let serve_table st =
  Printf.printf "  %-8s %8s %12s %12s\n" "class" "count" "p50 (us)" "p99 (us)";
  Printf.printf "  %-8s %8d %12.1f %12.1f\n" "hit" st.shits st.hit_p50_us
    st.hit_p99_us;
  Printf.printf "  %-8s %8d %12.1f %12.1f\n" "cold" st.scold st.cold_p50_us
    st.cold_p99_us;
  Printf.printf "  %-8s %8d %12.1f %12.1f\n" "overall" st.srequests
    st.all_p50_us st.all_p99_us;
  Printf.printf
    "  hit rate %.1f%%; cache-hit p50 is x%.0f below a cold solve's p50\n"
    (100.0 *. float_of_int st.shits /. float_of_int st.srequests)
    (st.cold_p50_us /. st.hit_p50_us);
  Printf.printf
    "  telemetry: reconciled %b; histogram p50 hit %.1f us / cold %.1f us\n%!"
    st.tel_reconciled st.tel_hit_p50_us st.tel_cold_p50_us

let serve_bench () =
  section "Serve: heavy traffic against the scheduling daemon (wiseserve)";
  let st = run_serve_traffic () in
  serve_table st;
  write_serve_json st

(* Serving gate (CI, advisory like the pipeline gate): machine-
   independent bounds over one fresh traffic run. The hit-rate floor is
   set by the workload's composition (the only cold-capable requests
   are the first touches of each distinct key), and the latency bounds
   are ratios against the same run's own cold solves — nothing here
   compares absolute times across machines. *)
let serve_check () =
  section "Serve check: hit-rate floor and hit-latency ceilings";
  (match
     List.rev (read_serve_file ())
     |> List.find_opt (fun r -> record_smoke r = Some false)
   with
  | Some r ->
    Printf.printf "  committed baseline: %S\n"
      (Option.value (record_label r) ~default:"?")
  | None ->
    Printf.printf "  (no committed non-smoke baseline in %s)\n" serve_bench_file);
  let st = run_serve_traffic () in
  serve_table st;
  let distinct = List.length (serve_population ()) in
  (* every request past the first touch of a key can hit; allow 10%
     slack for eviction effects *)
  let floor =
    0.9 *. (1.0 -. (float_of_int distinct /. float_of_int st.srequests))
  in
  let checks =
    [ ( "hit_rate",
        Bench_check.check_min ~floor
          ~value:(float_of_int st.shits /. float_of_int st.srequests) );
      ( "hit_p99 <= cold_p50",
        Bench_check.check_max ~ceiling:st.cold_p50_us ~value:st.hit_p99_us );
      ( "cold_p50/hit_p50 >= 10",
        Bench_check.check_min ~floor:10.0
          ~value:(st.cold_p50_us /. st.hit_p50_us) );
      (* the daemon's own histograms must tell the same story as the
         driver's sampled wall times: hits and colds separate, and the
         bucketed p50s agree with the sampled ones to within the
         log-linear resolution (upper-edge estimate, 12.5% buckets —
         4x is a generous machine-independent envelope) *)
      ( "hist hit_p50 <= hist cold_p50",
        Bench_check.check_max ~ceiling:st.tel_cold_p50_us
          ~value:st.tel_hit_p50_us );
      ( "hist/sampled hit_p50 <= 4",
        Bench_check.check_max ~ceiling:4.0
          ~value:(st.tel_hit_p50_us /. st.hit_p50_us) );
      ( "hist/sampled cold_p50 <= 4",
        Bench_check.check_max ~ceiling:4.0
          ~value:(st.tel_cold_p50_us /. st.cold_p50_us) ) ]
  in
  let failed = ref false in
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-28s %s\n" name (Bench_check.describe_bound v);
      if Bench_check.bound_failure v then failed := true)
    checks;
  Printf.printf "  %-28s %s\n" "telemetry reconciled"
    (if st.tel_reconciled then "OK" else "FAIL");
  if not st.tel_reconciled then failed := true;
  if !failed then begin
    Printf.printf "  FAIL: serving bounds violated\n";
    exit 1
  end
  else Printf.printf "  OK: all serving bounds hold\n"

(* --- telemetry overhead: instruments on vs off over warm traffic ------------- *)

(* The zero-cost-when-disabled claim, measured: the same warm request
   stream (all cache hits after warm-up, so the solver never runs and
   the per-request instrument work is the largest relative term) is
   driven through two servers that differ only in [config.metrics].
   Both must serve byte-identical schedule payloads — telemetry
   observes responses, it never shapes them — and the per-request
   delta is reported like [trace_overhead]. *)

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
   oversized lines) and a share of the cold solves is sabotaged by the
   chaos hook (injected exceptions, starved budgets, slow solves). The
   daemon must never crash, answer EVERY line with a typed envelope,
   keep deadline overruns bounded, trip and recover the circuit
   breaker, and — the core wiseserve guarantee — still serve payloads
   byte-identical to an unfaulted run afterwards. Survival metrics land
   in BENCH_soak.json; `soak --check` is the gate CI blocks on. *)

let soak_json_file = "BENCH_soak.json"
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
         chaos hook sees a steady stream of fresh fingerprints *)
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
  Serve.Chaos.reset ();
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
  Serve.Chaos.arm_queue (List.init threshold (fun _ -> Serve.Chaos.Raise));
  let pill = {|{"id": 0, "kernel": "gemver", "size": 9973}|} in
  let pill_tally = soak_fresh_tally () in
  for _ = 1 to threshold + 1 do
    ignore (soak_send t pill_tally pill ~hostile:true)
  done;

  (* phase 3: the concurrent soak — probabilistic chaos on cold solves,
     four worker domains firing the mixed request stream *)
  let chaos_mutex = Mutex.create () in
  let chaos_rng = ref 0x2545F4914F6CDD1DL in
  (Serve.Chaos.solve_fault :=
     fun () ->
       Mutex.lock chaos_mutex;
       let r = soak_rand_float chaos_rng in
       let ms = 40 + (soak_rand chaos_rng mod 60) in
       Mutex.unlock chaos_mutex;
       if r < 0.04 then Some Serve.Chaos.Raise
       else if r < 0.08 then Some Serve.Chaos.Exhaust
       else if r < 0.12 then Some (Serve.Chaos.Slow ms)
       else None);
  let tallies =
    List.init workers (fun w ->
        Domain.spawn (fun () -> soak_worker t ~worker:w ~count:per_worker))
    |> List.map Domain.join
  in
  (* snapshot the chaos tallies before reset zeroes them; shed and
     recovered are the soak server's own totals over every domain *)
  let raises = Atomic.get Serve.Chaos.injected_raises in
  let exhausts = Atomic.get Serve.Chaos.injected_exhausts in
  let slows = Atomic.get Serve.Chaos.injected_slows in
  let shed = Serve.Server.shed t in
  let recovered = Serve.Server.recovered t in
  Serve.Chaos.reset ();
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
     outcome mapping below re-derives [Serve.Telemetry.classify]
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

let soak_record st =
  let open Obs.Json in
  let label = Option.value (Sys.getenv_opt "BENCH_LABEL") ~default:"dev" in
  Obj
    [ ("label", Str label); ("smoke", Bool smoke);
      ("domains", Int st.kdomains); ("requests", Int st.ksent);
      ("hostile_lines", Int st.khostile);
      ( "injected",
        Obj
          [ ("raises", Int st.kraises); ("exhausts", Int st.kexhausts);
            ("slows", Int st.kslows) ] );
      ( "fault_share",
        Float (Float.of_string (Printf.sprintf "%.4f" (soak_fault_share st)))
      );
      ("hits", Int st.khits); ("misses", Int st.kcold);
      ("uncached", Int st.kuncached);
      ("error_codes", Obj (List.map (fun (c, n) -> (c, Int n)) st.kerrs));
      ("untyped", Int st.kuntyped); ("crashes", Int st.kcrashes);
      ( "deadline",
        Obj
          [ ("deadline_ms", Int soak_deadline_ms);
            ("samples", Int st.koverrun_samples);
            ("overrun_p99_ms", Float (round2 st.koverrun_p99_ms));
            ("bound_ms", Int (2 * soak_deadline_ms)) ] );
      ( "breaker",
        Obj [ ("trips", Int st.ktrips); ("rejects", Int st.krejects) ] );
      ("shed", Int st.kshed); ("recovered", Int st.krecovered);
      ( "telemetry",
        Obj
          [ ("scrapes", Int st.kscrapes); ("monotone", Bool st.kmono);
            ("requests_total", Int st.ktel_requests);
            ("ledger_reconciled", Bool st.kledger) ] );
      ("warm_identity", Bool st.kwarm_identity);
      ("warm_all_hits", Bool st.kwarm_hits);
      ("cold_identity", Bool st.kcold_identity);
      ("wall_s", Float (round2 st.kwall_s)) ]

let read_soak_file () =
  if Sys.file_exists soak_json_file then begin
    let ic = open_in_bin soak_json_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obs.Json.parse s with
    | Error msg -> failwith (Printf.sprintf "%s: %s" soak_json_file msg)
    | Ok doc ->
      (match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list_opt with
      | Some runs -> runs
      | None -> failwith (soak_json_file ^ {|: no "runs" array|}))
  end
  else []

let write_soak_json st =
  let run = soak_record st in
  let label = Option.value (record_label run) ~default:"dev" in
  let kept =
    List.filter (fun r -> record_label r <> Some label) (read_soak_file ())
  in
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.Int 1);
        ( "unit",
          Obs.Json.Str
            "survival metrics of the daemon under chaos + hostile traffic" );
        ("runs", Obs.Json.List (kept @ [ run ])) ]
  in
  let oc = open_out_bin soak_json_file in
  output_string oc (Obs.Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "  wrote %s (label %S)\n%!" soak_json_file label

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

let soak_bench () =
  section "Soak: chaos + hostile traffic against the hardened daemon";
  let st = run_soak () in
  soak_table st;
  write_soak_json st

(* Soak gate (CI, blocking): validates the latest BENCH_soak record.
   Every bound is machine-independent — counts, shares and identity
   booleans from one run; the only time-like bound (overrun p99) is
   relative to the deadline the run itself requested. *)
let soak_check () =
  section "Soak check: survival bounds over the latest BENCH_soak record";
  match List.rev (read_soak_file ()) with
  | [] ->
    Printf.printf "  no record in %s; run `bench -- soak` first\n"
      soak_json_file;
    exit 1
  | run :: _ ->
    let open Obs.Json in
    let smoke_run = Option.value (record_smoke run) ~default:false in
    Printf.printf "  record: %S (smoke %b)\n"
      (Option.value (record_label run) ~default:"?")
      smoke_run;
    let num path =
      let rec go j = function
        | [] -> to_float_opt j |> fun f ->
          (match f with Some _ -> f | None -> Option.map float_of_int (to_int_opt j))
        | f :: rest -> Option.bind (member f j) (fun v -> go v rest)
      in
      Option.value (go run path) ~default:Float.nan
    in
    let flag path =
      match
        let rec go j = function
          | [] -> to_bool_opt j
          | f :: rest -> Option.bind (member f j) (fun v -> go v rest)
        in
        go run path
      with
      | Some b -> b
      | None -> false
    in
    let failed = ref false in
    let bound name v =
      Printf.printf "  %-36s %s\n" name (Bench_check.describe_bound v);
      if Bench_check.bound_failure v then failed := true
    in
    let must name ok =
      Printf.printf "  %-36s %s\n" name (if ok then "OK" else "FAIL");
      if not ok then failed := true
    in
    bound "crashes = 0" (Bench_check.check_max ~ceiling:0.0 ~value:(num [ "crashes" ]));
    bound "untyped responses = 0"
      (Bench_check.check_max ~ceiling:0.0 ~value:(num [ "untyped" ]));
    bound "fault share >= 0.10"
      (Bench_check.check_min ~floor:0.10 ~value:(num [ "fault_share" ]));
    bound "overrun p99 <= 2 x deadline"
      (Bench_check.check_max
         ~ceiling:(num [ "deadline"; "bound_ms" ])
         ~value:(num [ "deadline"; "overrun_p99_ms" ]));
    bound "overrun samples > 0"
      (Bench_check.check_min ~floor:1.0 ~value:(num [ "deadline"; "samples" ]));
    bound "breaker trips >= 1"
      (Bench_check.check_min ~floor:1.0 ~value:(num [ "breaker"; "trips" ]));
    bound "breaker rejects >= 1"
      (Bench_check.check_min ~floor:1.0 ~value:(num [ "breaker"; "rejects" ]));
    bound "firewall recoveries >= 1"
      (Bench_check.check_min ~floor:1.0 ~value:(num [ "recovered" ]));
    bound "live scrapes >= 1"
      (Bench_check.check_min ~floor:1.0
         ~value:(num [ "telemetry"; "scrapes" ]));
    must "scrape totals monotone" (flag [ "telemetry"; "monotone" ]);
    must "telemetry ledger reconciled" (flag [ "telemetry"; "ledger_reconciled" ]);
    must "warm identity after soak" (flag [ "warm_identity" ]);
    must "fresh-server cold identity" (flag [ "cold_identity" ]);
    if not smoke_run then begin
      bound "requests >= 2000 (full scale)"
        (Bench_check.check_min ~floor:2000.0 ~value:(num [ "requests" ]));
      bound "domains >= 2 (full scale)"
        (Bench_check.check_min ~floor:2.0 ~value:(num [ "domains" ]))
    end;
    if !failed then begin
      Printf.printf "  FAIL: soak survival bounds violated\n";
      exit 1
    end
    else Printf.printf "  OK: the daemon survived the soak within bounds\n"

(* --- engine scale sweep: ilp vs lp-dfp on generated SCoPs + BENCH_scale.json -- *)

let scale_json_file = "BENCH_scale.json"

(* Chain and blocked sweep to 200 statements. Stencil stops at 100: its
   ±1 shifts force a loop cut every few statements, both engines spend
   the sweep inside the shared cut machinery, and past 100 statements
   the sizes cost minutes each to restate a tie. *)
let scale_sizes shape =
  let full =
    match shape with
    | Kernels.Scopgen.Stencil -> [ 10; 25; 50; 100 ]
    | Kernels.Scopgen.Chain | Kernels.Scopgen.Blocked ->
      [ 10; 25; 50; 100; 150; 200 ]
  in
  if smoke then List.filter (fun s -> s <= 50) full else full

(* The counters that tell the two engines apart: bb_nodes must stay 0
   on the lp-dfp path, lp_relax_solves 0 on the ilp path, and
   dfp_fallbacks counts the levels clustering could not certify. *)
let scale_counter_names =
  [ "lp_solves"; "ilp_solves"; "bb_nodes"; "lp_relax_solves";
    "cluster_rounds"; "dfp_fallbacks" ]

type scale_cell = {
  swall_ms : float;
  scounters : (string * int) list;
  srows : int; (* schedule rows of statement 0 — sanity, both engines agree *)
}

(* One timed scheduler run on shared, pre-analyzed dependences, so the
   measurement isolates the engine (hyperplane search) from dependence
   analysis. A single repetition: the interesting walls are hundreds of
   milliseconds to seconds, where run-to-run noise is far below the
   2x gaps the sweep exists to show. *)
let time_scale_engine cfg prog deps kind =
  Pluto.Farkas.reset_cache ();
  Linalg.Counters.reset ();
  let t0 = Linalg.Clock.now () in
  let res =
    Pluto.Scheduler.run_with_deps ~engine:(Pluto.Engine.Fixed kind) cfg prog
      deps
  in
  let dt = Linalg.Clock.now () -. t0 in
  let all = Linalg.Counters.all_counters () in
  {
    swall_ms = dt *. 1e3;
    scounters = List.filter (fun (n, _) -> List.mem n scale_counter_names) all;
    srows = List.length res.Pluto.Scheduler.sched.(0);
  }

let scale_engines = [ Pluto.Engine.Ilp; Pluto.Engine.Lp_dfp ]

(* size row: {"stmts", "deps", "ilp": {...}, "lp-dfp": {...}} *)
let scale_size_row shape stmts =
  let prog = Kernels.Scopgen.generate shape ~stmts in
  let deps = Deps.Dep.analyze prog in
  let cfg = scheduler_config Wisefuse in
  let cells =
    List.map (fun k -> (k, time_scale_engine cfg prog deps k)) scale_engines
  in
  let cell k = List.assoc k cells in
  let c kind name =
    try List.assoc name (cell kind).scounters with Not_found -> 0
  in
  Printf.printf "  %-8s %5d %6d %10.2f %10.2f %8d %8d %6d %5d\n%!"
    (Kernels.Scopgen.shape_name shape)
    stmts (List.length deps) (cell Ilp).swall_ms (cell Lp_dfp).swall_ms
    (c Ilp "bb_nodes")
    (c Lp_dfp "lp_relax_solves")
    (c Lp_dfp "cluster_rounds")
    (c Lp_dfp "dfp_fallbacks");
  let open Obs.Json in
  let cell_obj cl =
    Obj
      (("wall_ms", Float (round2 cl.swall_ms))
       :: ("sched_rows", Int cl.srows)
       :: List.map (fun (n, v) -> (n, Int v)) cl.scounters)
  in
  Obj
    (("stmts", Int stmts)
     :: ("deps", Int (List.length deps))
     :: List.map
          (fun (k, cl) -> (Pluto.Engine.kind_name k, cell_obj cl))
          cells)

let scale_record () =
  Printf.printf "  %-8s %5s %6s %10s %10s %8s %8s %6s %5s\n" "shape" "stmts"
    "deps" "ilp ms" "lp-dfp ms" "bb nodes" "lp relax" "rounds" "fall";
  let shapes =
    List.map
      (fun shape ->
        ( Kernels.Scopgen.shape_name shape,
          Obs.Json.List (List.map (scale_size_row shape) (scale_sizes shape)) ))
      Kernels.Scopgen.all_shapes
  in
  let label = Option.value (Sys.getenv_opt "BENCH_LABEL") ~default:"dev" in
  Obs.Json.Obj
    [ ("label", Obs.Json.Str label); ("smoke", Obs.Json.Bool smoke);
      ("shapes", Obs.Json.Obj shapes) ]

let read_scale_file () =
  if Sys.file_exists scale_json_file then begin
    let ic = open_in_bin scale_json_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obs.Json.parse s with
    | Error msg -> failwith (Printf.sprintf "%s: %s" scale_json_file msg)
    | Ok doc ->
      (match Option.bind (Obs.Json.member "runs" doc) Obs.Json.to_list_opt with
      | Some runs -> runs
      | None -> failwith (scale_json_file ^ {|: no "runs" array|}))
  end
  else []

let write_scale_json run =
  let label = Option.value (record_label run) ~default:"dev" in
  let kept =
    List.filter (fun r -> record_label r <> Some label) (read_scale_file ())
  in
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.Int 1);
        ( "unit",
          Obs.Json.Str
            "wall milliseconds of one scheduler run per engine on shared deps"
        );
        ("runs", Obs.Json.List (kept @ [ run ])) ]
  in
  let oc = open_out_bin scale_json_file in
  output_string oc (Obs.Json.to_string_pretty doc);
  close_out oc;
  Printf.printf "  wrote %s (label %S)\n%!" scale_json_file label

let scale () =
  section "Scale: ilp vs lp-dfp engines on generated large SCoPs";
  write_scale_json (scale_record ())

(* Scale gate (CI, advisory like the other gates): validates the latest
   record in BENCH_scale.json — both engines ran in the same process on
   the same dependences, so every bound below is a ratio or a counter
   within one run; nothing compares absolute times across machines.
   Bounds:
     - bb_nodes = 0 on every lp-dfp cell (the path never branches);
     - at each shape's largest size, lp-dfp wall <= ilp wall x 1.25
       (stencil legitimately ties — cut machinery dominates — so the
       per-shape bound carries tolerance);
     - aggregate lp-dfp wall <= aggregate ilp wall over the whole sweep
       (the headline claim: the relaxation path wins where it matters).
*)
let scale_check_threshold = 1.25

let scale_check () =
  section "Scale check: lp-dfp bounds over the latest BENCH_scale record";
  match List.rev (read_scale_file ()) with
  | [] ->
    Printf.printf "  no record in %s; run `bench -- scale` first\n"
      scale_json_file;
    exit 1
  | run :: _ ->
    Printf.printf "  record: %S (smoke %b)\n"
      (Option.value (record_label run) ~default:"?")
      (Option.value (record_smoke run) ~default:false);
    let open Obs.Json in
    let num cell name =
      Option.bind (member name cell) (fun v ->
          match to_float_opt v with
          | Some f -> Some f
          | None -> Option.map float_of_int (to_int_opt v))
    in
    let failed = ref false in
    let bound name v =
      Printf.printf "  %-40s %s\n" name (Bench_check.describe_bound v);
      if Bench_check.bound_failure v then failed := true
    in
    let ilp_total = ref 0.0 and dfp_total = ref 0.0 in
    let shapes =
      match member "shapes" run with
      | Some (Obj fields) -> fields
      | _ -> failwith (scale_json_file ^ {|: record has no "shapes" object|})
    in
    List.iter
      (fun (shape, rows) ->
        let rows = Option.value (to_list_opt rows) ~default:[] in
        List.iter
          (fun row ->
            match (member "ilp" row, member "lp-dfp" row) with
            | Some ilp, Some dfp ->
              ilp_total :=
                !ilp_total +. Option.value (num ilp "wall_ms") ~default:0.0;
              dfp_total :=
                !dfp_total +. Option.value (num dfp "wall_ms") ~default:0.0;
              let stmts =
                Option.value (num row "stmts") ~default:Float.nan
              in
              bound
                (Printf.sprintf "%s/%.0f lp-dfp bb_nodes = 0" shape stmts)
                (Bench_check.check_max ~ceiling:0.0
                   ~value:(Option.value (num dfp "bb_nodes") ~default:Float.nan))
            | _ ->
              failed := true;
              Printf.printf "  BAD %s row lacks an engine cell\n" shape)
          rows;
        (* per-shape wall bound at the largest size only: small sizes
           are millisecond noise, the asymptote is the claim *)
        match List.rev rows with
        | last :: _ -> (
          match (member "ilp" last, member "lp-dfp" last) with
          | Some ilp, Some dfp ->
            let iw = Option.value (num ilp "wall_ms") ~default:Float.nan in
            let dw = Option.value (num dfp "wall_ms") ~default:Float.nan in
            let stmts = Option.value (num last "stmts") ~default:Float.nan in
            bound
              (Printf.sprintf "%s/%.0f lp-dfp <= ilp x %.2f" shape stmts
                 scale_check_threshold)
              (Bench_check.check_max
                 ~ceiling:(iw *. scale_check_threshold)
                 ~value:dw)
          | _ -> ())
        | [] ->
          failed := true;
          Printf.printf "  BAD shape %s has no rows\n" shape)
      shapes;
    bound "aggregate lp-dfp <= aggregate ilp"
      (Bench_check.check_max ~ceiling:!ilp_total ~value:!dfp_total);
    Printf.printf "  aggregate: lp-dfp %.2f ms vs ilp %.2f ms\n" !dfp_total
      !ilp_total;
    if !failed then begin
      Printf.printf "  FAIL: scale bounds violated\n";
      exit 1
    end
    else Printf.printf "  OK: all scale bounds hold\n"

(* --- Bechamel: time the compiler itself -------------------------------------- *)

let bechamel () =
  section "Bechamel: optimization-pipeline timings (one test per experiment)";
  let open Bechamel in
  let open Toolkit in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    [ mk "table2-registry" (fun () -> ignore (List.length Kernels.Registry.all));
      mk "fig1-gemver-smartfuse" (fun () ->
          ignore
            (Pluto.Scheduler.run Pluto.Scheduler.smartfuse
               (Kernels.Gemver.program ~n:10 ())));
      mk "fig3-gemver-wisefuse" (fun () ->
          ignore (Fusion.Wisefuse.run (Kernels.Gemver.program ~n:10 ())));
      mk "fig5-swim-prefusion" (fun () ->
          let prog = Kernels.Swim.program ~n:6 () in
          let deps = Deps.Dep.analyze prog in
          let ddg = Deps.Ddg.build prog deps in
          let scc = Deps.Ddg.scc_kosaraju ddg in
          ignore (Fusion.Prefusion.order prog ddg scc));
      mk "fig4_6-advect-alg2" (fun () ->
          ignore (Fusion.Wisefuse.run (Kernels.Advect.program ~n:8 ())));
      mk "fig7-simulate-gemver" (fun () ->
          let prog = Kernels.Gemver.program ~n:10 () in
          let ast = Codegen.Scan.original prog ~deps:[] in
          ignore
            (Machine.Perf.simulate prog ast
               ~params:prog.Scop.Program.default_params));
      mk "fig8-gemsfdtd-icc" (fun () ->
          ignore (Icc.Icc_model.run (Kernels.Gemsfdtd.program ~n:4 ()))) ]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ()
  in
  List.iter
    (fun t ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ t ]) in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let res = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ est ] -> Printf.printf "  %-26s %14.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-26s (no estimate)\n%!" name)
        res)
    tests;
  (* the pipeline timings ride along so `-- bechamel` (what CI runs)
     always refreshes BENCH_pipeline.json *)
  pipeline ()

(* --- driver -------------------------------------------------------------------- *)

let experiments =
  [ ("table1", table1); ("table2", table2); ("fig1", fig1); ("fig3", fig3);
    ("fig5", fig5); ("fig4_6", fig4_6); ("fig7", fig7); ("fig8", fig8);
    ("scaling", scaling); ("ablation", ablation); ("extras", extras);
    ("tiling", tiling); ("locality", locality); ("space", space);
    ("vector", vector); ("pipeline", pipeline); ("analyze", analyze_overhead);
    ("budget", budget_overhead); ("trace", trace_overhead);
    ("serve", serve_bench); ("telemetry", telemetry_overhead);
    ("scale", scale); ("soak", soak_bench);
    ("bechamel", bechamel) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "pipeline"; "--check" ] | [ "--check" ] -> pipeline_check ()
  | [ "serve"; "--check" ] -> serve_check ()
  | [ "scale"; "--check" ] -> scale_check ()
  | [ "soak"; "--check" ] -> soak_check ()
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
