(* The compile workloads: one job takes a kernel specification to
   certified C, the path of a fresh `wisefuse_cli emit` — build the
   SCoP, optimize (dependences, scheduling, verification, scan
   codegen), certify with wisecheck, print the C. The Farkas memo and
   the pipeline counters are reset before every job, as a fresh process
   would find them.

   registry: the paper's programs (Fig. 7), every registry kernel under
   every fusion model at its model size. Below 40 statements, so the
   ILP/branch-and-bound engine schedules.

   scale: Kernels.Scopgen programs of 40-60 statements under wisefuse,
   where the automatic engine choice is lp-dfp and scheduling dominates
   the wall time.

   Both run a fixed set of jobs, so every seed does the same work; the
   seed shuffles the job order of every pass. *)

type program = { pname : string; build : unit -> Scop.Program.t }

type job = { name : string; index : int; prog : int; model : Fusion.Model.t }

type plan = {
  programs : program array;
  jobs : job array;
  passes : int;
  seed : int;
}

let jobs_of programs models =
  let jobs = ref [] in
  Array.iteri
    (fun p prog ->
      List.iter
        (fun m -> jobs := (p, prog.pname ^ "/" ^ Fusion.Model.name m, m) :: !jobs)
        models)
    programs;
  Array.of_list
    (List.mapi (fun index (prog, name, model) -> { name; index; prog; model }) (List.rev !jobs))

(* Passes per run: the run's seconds at the nominal cost of one pass on
   the 2-core reference container, so parent and change do the same
   work. *)
let registry_pass_s = 5.8
let scale_pass_s = 3.6

let passes ~seconds ~pass_s = max 1 (int_of_float (Float.round (seconds /. pass_s)))

let registry ~smoke ~seed ~seconds =
  let entries =
    if smoke then
      List.filter
        (fun (e : Kernels.Registry.entry) -> List.mem e.name [ "advect"; "gemver"; "dot" ])
        Kernels.Registry.all
    else Kernels.Registry.all
  in
  let programs =
    Array.of_list
      (List.map
         (fun (e : Kernels.Registry.entry) ->
           { pname = e.name; build = (fun () -> Kernels.Registry.build e) })
         entries)
  in
  { programs; jobs = jobs_of programs Fusion.Model.all;
    passes = (if smoke then 1 else passes ~seconds ~pass_s:registry_pass_s); seed }

(* Chain statement counts step through 40-60, three blocked programs,
   and one stencil: stencil40 already carries 237 dependences through
   the cut machinery and the Farkas memo, and each stencil costs more
   than the whole chain series. *)
let scale_population =
  List.init 11 (fun k -> (Kernels.Scopgen.Chain, 40 + (2 * k)))
  @ [ (Kernels.Scopgen.Blocked, 40); (Kernels.Scopgen.Blocked, 45);
      (Kernels.Scopgen.Blocked, 50); (Kernels.Scopgen.Stencil, 40) ]

let scale ~smoke ~seed ~seconds =
  let population = if smoke then [ (Kernels.Scopgen.Chain, 40) ] else scale_population in
  let programs =
    Array.of_list
      (List.map
         (fun (shape, stmts) ->
           { pname = Printf.sprintf "%s%d" (Kernels.Scopgen.shape_name shape) stmts;
             build = (fun () -> Kernels.Scopgen.generate shape ~stmts) })
         population)
  in
  { programs; jobs = jobs_of programs [ Fusion.Model.Wisefuse ];
    passes = (if smoke then 1 else passes ~seconds ~pass_s:scale_pass_s); seed }

(* the job order of every pass: a fresh seeded shuffle per pass *)
let order plan =
  let rng = Rng.make plan.seed 2 in
  List.init plan.passes (fun _ ->
      let a = Array.init (Array.length plan.jobs) Fun.id in
      Rng.shuffle rng a;
      a)

(* --- one job ---------------------------------------------------------- *)

let span name f = Obs.Trace.span ~cat:"bench" name f

let artifacts (opt : Fusion.Model.optimized) =
  match (opt.Fusion.Model.scheduler, opt.Fusion.Model.icc) with
  | Some r, _ -> (r.Pluto.Scheduler.prog, r.Pluto.Scheduler.all_deps, r.Pluto.Scheduler.sched)
  | None, Some r -> (r.Icc.Icc_model.prog, r.Icc.Icc_model.deps, r.Icc.Icc_model.sched)
  | None, None -> invalid_arg "optimized result carries no schedule"

type output = {
  prog : Scop.Program.t;
  opt : Fusion.Model.optimized;
  report : Analysis.Wisecheck.report;
  c : string;
}

let compile plan (job : job) =
  span "bench.job" (fun () ->
      let prog = span "bench.build" plan.programs.(job.prog).build in
      let opt = span "bench.optimize" (fun () -> Fusion.Model.optimize job.model prog) in
      let report =
        span "bench.certify" (fun () ->
            let aprog, deps, sched = artifacts opt in
            Analysis.Wisecheck.certify aprog deps sched opt.Fusion.Model.ast)
      in
      let c =
        span "bench.cprint" (fun () ->
            Codegen.Cprint.program
              ~name:(plan.programs.(job.prog).pname ^ "_" ^ Fusion.Model.name job.model)
              prog opt.Fusion.Model.ast)
      in
      { prog; opt; report; c })

(* what the first run of each job leaves for the layer counts *)
type first = {
  c_md5 : string;
  counters : (string * int) list;
  deps : int;
  degraded : bool;
  parallel_loops : int;
  c_bytes : int;
  sim : Machine.Perf.stats;
}

let parallel_loops ast =
  let n = ref 0 in
  Codegen.Ast.iter_loops
    (fun l ->
      match l.Codegen.Ast.par with
      | Codegen.Ast.Parallel | Codegen.Ast.Parallel_reduction -> incr n
      | Codegen.Ast.Forward | Codegen.Ast.Sequential -> ())
    ast;
  !n

let degraded (o : output) =
  match o.opt.Fusion.Model.resilience with
  | Some r -> Fusion.Resilient.degraded r
  | None -> false

(* Checks every run: no degradation off the primary rung, no wisecheck
   error. The first run of a job is also interpreted against the
   original program, simulated, and held to the golden digest; later
   runs must print the same C. *)
let check ~golden ~reference ~first ~counters (job : job) (o : output) =
  let md5 = Digest.to_hex (Digest.string o.c) in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if degraded o then fail "degraded off the primary rung";
  if o.report.Analysis.Wisecheck.errors > 0 then
    fail "%d wisecheck errors" o.report.Analysis.Wisecheck.errors;
  let record =
    match first with
    | Some f ->
      if f.c_md5 <> md5 then fail "emitted C differs from this job's first run";
      None
    | None ->
      let params = o.prog.Scop.Program.default_params in
      let ast = o.opt.Fusion.Model.ast in
      let mem = Machine.Interp.init_memory o.prog ~params in
      Machine.Interp.run o.prog ast mem ~params;
      (match Machine.Interp.first_diff reference mem with
      | None -> ()
      | Some d -> fail "differs from the original program: %s" d);
      let sim = Machine.Perf.simulate o.prog ast ~params in
      (match Golden.check_compile golden job.name ~c_md5:md5 ~cycles:sim.Machine.Perf.cycles with
      | Ok () -> ()
      | Error m -> fail "%s" m);
      let _, deps, _ = artifacts o.opt in
      Some
        { c_md5 = md5; counters;
          deps = List.length deps; degraded = degraded o;
          parallel_loops = parallel_loops ast; c_bytes = String.length o.c; sim }
  in
  (record, List.rev !errors)

(* --- the run ---------------------------------------------------------- *)

let layer_of (cat, name) =
  match (cat, name) with
  | "bench", "bench.job" -> "op.other_us"
  | "bench", "bench.build" -> "kernels.build_us"
  | "bench", "bench.cprint" -> "emit.render_us"
  | ("bench", "bench.certify") | ("stage", "analysis") -> "analysis.certify_ms"
  | "stage", "dep-analysis" -> "deps.analyze_ms"
  | ("stage", "scheduling") | ("sched", _) -> "pluto.scheduling_ms"
  | "stage", "verification" -> "pluto.verification_ms"
  | "stage", "codegen" -> "codegen.scan_ms"
  | _ -> "fusion.self_ms" (* bench.optimize and the ladder around the stages *)

let time_layers =
  [ "kernels.build_us"; "deps.analyze_ms"; "pluto.scheduling_ms"; "pluto.verification_ms";
    "codegen.scan_ms"; "analysis.certify_ms"; "fusion.self_ms"; "emit.render_us";
    "op.other_us" ]

let per_op_us acc ~ops =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (key, us) ->
      let l = layer_of key in
      Hashtbl.replace tbl l (us +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0))
    (Layers.bindings acc);
  List.map
    (fun l -> (l, Option.value (Hashtbl.find_opt tbl l) ~default:0.0 /. float_of_int ops))
    time_layers

let in_unit (name, us) =
  (name, if Filename.check_suffix name "_ms" then us /. 1000.0 else us)

let fig7_gm plan (firsts : first option array) =
  let cycles name =
    Array.to_list plan.jobs
    |> List.find_map (fun j ->
           if j.name = name then Option.map (fun f -> f.sim.Machine.Perf.cycles) firsts.(j.index)
           else None)
  in
  let ratios =
    Array.to_list plan.programs
    |> List.filter_map (fun p ->
           match (cycles (p.pname ^ "/icc"), cycles (p.pname ^ "/wisefuse")) with
           | Some icc, Some wf -> Some (float_of_int icc /. float_of_int wf)
           | _ -> None)
  in
  if ratios = [] then 0.0 else Stats.geomean ratios

let count_layers plan firsts =
  let fs = Array.to_list firsts |> List.filter_map Fun.id in
  let sum f = float_of_int (List.fold_left (fun a x -> a + f x) 0 fs) in
  Run.counter_layers (List.map (fun f -> f.counters) fs)
  @ [ ("deps.count", sum (fun f -> f.deps));
      ("fusion.degraded", sum (fun f -> Bool.to_int f.degraded));
      ("codegen.parallel_loops", sum (fun f -> f.parallel_loops));
      ("codegen.c_bytes_total", sum (fun f -> f.c_bytes));
      ( "machine.sim_cycles_gm",
        Stats.geomean (List.map (fun f -> float_of_int f.sim.Machine.Perf.cycles) fs) );
      ("machine.fig7_wisefuse_gm", fig7_gm plan firsts);
      ("machine.l1_misses", sum (fun f -> f.sim.Machine.Perf.l1_misses));
      ("machine.l3_misses", sum (fun f -> f.sim.Machine.Perf.l3_misses));
      ("machine.barriers", sum (fun f -> f.sim.Machine.Perf.barriers));
      ("serve.hit_ratio", 0.0);
      ("serve.response_bytes", 0.0);
      ("serve.coalesced", 0.0) ]

(* set-up: build every program and interpret it for the reference memory
   the first run of each job is checked against *)
let build_references plan =
  Array.map
    (fun p ->
      let prog = p.build () in
      let params = prog.Scop.Program.default_params in
      let mem = Machine.Interp.init_memory prog ~params in
      Machine.Interp.run_original prog mem ~params;
      mem)
    plan.programs

let run ~golden ~trace ~trace_file ~log plan =
  (* A set-up takes a fraction of a second, shorter than the host's slow
     spells; set-ups spread over the run (two before every pass) keep
     one spell from setting the median. *)
  let references, first_setups = Run.setup ~times:2 (fun () -> build_references plan) in
  let setups = ref first_setups in
  let passes = order plan in
  let passes = if trace && List.length passes = 1 then passes @ passes else passes in
  let npasses = List.length passes in
  let firsts = Array.make (Array.length plan.jobs) None in
  let untraced = ref [] and traced = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let acc = Layers.create () and export = Layers.export () in
  let worst_gap = ref 0.0 and t_run = Run.now () in
  List.iteri
    (fun p order ->
      let traced_pass = trace && p = npasses - 1 in
      if p > 0 then
        setups := snd (Run.setup ~times:2 (fun () -> build_references plan)) @ !setups;
      Array.iter
        (fun i ->
          let job = plan.jobs.(i) in
          incr attempted;
          Linalg.Counters.reset ();
          Pluto.Farkas.reset_cache ();
          let offset_us = (Run.now () -. t_run) *. 1e6 in
          let t0 = Run.now () in
          let result =
            try
              Ok
                (if traced_pass then Obs.Trace.with_recording (fun () -> compile plan job)
                 else (compile plan job, []))
            with e -> Error e
          in
          let ms = Linalg.Clock.elapsed_ms ~since:t0 in
          Obs.Trace.disable ();
          match result with
          | Error e ->
            incr failed;
            log (Printf.sprintf "FAIL %s: %s" job.name (Printexc.to_string e))
          | Ok (o, events) ->
            let counters = Linalg.Counters.all_counters () in
            let record, errors =
              check ~golden ~reference:references.(job.prog) ~first:firsts.(i) ~counters job o
            in
            Option.iter (fun r -> firsts.(i) <- Some r) record;
            if errors <> [] then begin
              incr failed;
              List.iter (fun e -> log (Printf.sprintf "FAIL %s: %s" job.name e)) errors
            end;
            if traced_pass then begin
              let top = Layers.self_times acc events in
              worst_gap := Float.max !worst_gap (Float.abs (top -. (ms *. 1000.0)) /. (ms *. 1000.0));
              Layers.keep export (Layers.shift events ~by:offset_us);
              traced := (i, ms) :: !traced
            end
            else untraced := (i, ms) :: !untraced)
        order)
    passes;
  let samples = Array.of_list (List.rev !untraced) in
  let layers =
    if not trace then []
    else begin
      let ntraced = List.length !traced in
      log
        (Printf.sprintf "layer self-times reconcile with job wall: worst gap %.2f%% over %d jobs"
           (!worst_gap *. 100.0) ntraced);
      Option.iter (Layers.write export) trace_file;
      List.map in_unit (per_op_us acc ~ops:(max 1 ntraced))
      @ [ ( "obs.trace_overhead_pct",
            Run.overhead_pct ~untraced:samples ~traced:(Array.of_list !traced) ) ]
      @ count_layers plan firsts
    end
  in
  { Run.attempted = !attempted; failed = !failed; samples;
    busy_s = Array.fold_left (fun a (_, ms) -> a +. (ms /. 1000.0)) 0.0 samples;
    setup_s = Stats.median !setups; layers }
