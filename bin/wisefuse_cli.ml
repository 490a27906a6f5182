(* wisefuse: command-line driver.

   Subcommands:
     list              - the benchmark registry (Table 2)
     show KERNEL       - print the source program
     deps KERNEL       - dependences, DDG and SCCs
     opt KERNEL        - schedule + partitions + generated code
     emit KERNEL       - emit a complete C program
     sim KERNEL        - simulate and report the machine model's stats
     analyze KERNEL    - wisecheck certification (race freedom, lints)
     trace KERNEL      - export a Chrome trace-event file
     explain KERNEL    - human-readable fusion-decision report
     serve             - the scheduling daemon (stdio / Unix socket)
     metrics           - one-shot telemetry scrape of a running daemon

   Exit codes (see Pluto.Diagnostics.exit_code):
     0 success; 2 usage error (unknown kernel/model/engine, bad flags or
     flag values); 3 solver budget exhausted; 4 scheduling failed; 5
     verification failed; 6 codegen failed; 7 error-severity wisecheck
     findings; 125 an unexpected exception (a bug). *)

open Cmdliner

(* an integer flag that must be at least [floor]; anything else is a
   usage error *)
let int_at_least floor =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= floor -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is below %d" s floor))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv ~docv:"INT" (parse, Format.pp_print_int)

let positive_int = int_at_least 1
let non_negative_int = int_at_least 0

(* a number flag that must be above 0 *)
let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not above 0" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a number" s))
  in
  Arg.conv ~docv:"NUM" (parse, Format.pp_print_float)

let kernel_arg =
  let doc = "Benchmark name (see `wisefuse list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)

(* KERNEL, or every registry kernel with --all *)
type target = Kernel of string | All

let target_arg ~all_doc =
  let kernel =
    let doc = "Benchmark name (see `wisefuse list'); omit with --all." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:all_doc) in
  let target kernel all =
    match (kernel, all) with
    | _, true -> Ok All
    | Some k, false -> Ok (Kernel k)
    | None, false -> Error "KERNEL required (or pass --all)"
  in
  Term.(term_result' (const target $ kernel $ all))

let size_arg =
  let doc = "Problem size N (default: the registry's model size)." in
  Arg.(value & opt (some int) None & info [ "n"; "size" ] ~docv:"N" ~doc)

let model_arg =
  let models = List.map (fun m -> (Fusion.Model.name m, m)) Fusion.Model.all in
  let doc =
    Printf.sprintf "Fusion model: %s." (String.concat ", " (List.map fst models))
  in
  Arg.(value
       & opt (enum models) Fusion.Model.Wisefuse
       & info [ "m"; "model" ] ~docv:"MODEL" ~doc)

let cores_arg =
  let doc = "Number of model cores." in
  Arg.(value & opt positive_int 8 & info [ "c"; "cores" ] ~docv:"CORES" ~doc)

let tile_arg =
  let doc = "Tile permutable bands with this edge (polyhedral models only)." in
  Arg.(value & opt (some positive_int) None & info [ "t"; "tile" ] ~docv:"SIZE" ~doc)

let engine_arg =
  let doc =
    "Scheduling engine: ilp (exact branch-and-bound lexmin), lp-dfp (LP \
     relaxation + clustering, no branching), or auto (ilp below the \
     statement-count threshold, lp-dfp at or above)."
  in
  let engines =
    List.map
      (fun c -> (Pluto.Engine.choice_name c, c))
      Pluto.Engine.[ Fixed Ilp; Fixed Lp_dfp; Auto ]
  in
  Arg.(value
       & opt (enum engines) Pluto.Engine.Auto
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let reductions_arg =
  let doc =
    "Reduction-aware legality: on (prove reduction statements with the \
     wisereduce detector and relax their covered self-dependences in the \
     scheduler; reduction loops come out as parallel reductions) or off \
     (never tag a dependence; schedules are byte-identical to the \
     pre-reduction pipeline)."
  in
  Arg.(value
       & opt (enum [ ("on", true); ("off", false) ]) false
       & info [ "reductions" ] ~docv:"MODE" ~doc)

let simd_arg =
  let doc = "Model simd width (1 = off)." in
  Arg.(value & opt positive_int 1 & info [ "simd" ] ~docv:"W" ~doc)

let stats_arg =
  let doc =
    "Print the whole command's pipeline performance counters (LP solves, \
     simplex pivots, bignum promotions) and each stage's self-time after \
     the run."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* set from --verbose when a pipeline command line is evaluated; read by
   the top-level diagnostic handler when a pipeline error escapes *)
let verbose = ref false

let verbose_arg =
  let doc = "Render full diagnostic context (phase, code, details) on errors." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* What every job of a pipeline command takes. *)
type job = {
  size : int option;
  model : Fusion.Model.t;
  engine : Pluto.Engine.choice;
  reductions : bool;
}

let job_args =
  let job size model engine reductions vflag =
    verbose := vflag;
    { size; model; engine; reductions }
  in
  Term.(const job $ size_arg $ model_arg $ engine_arg $ reductions_arg
        $ verbose_arg)

(* --stats: the counters of the whole command, then each stage's
   self-time summed over the command. The stage observer that sums them
   is installed only under --stats. *)
let with_stats stats f =
  if not stats then f ()
  else begin
    (* (stage, summed self seconds), latest first use first *)
    let stages = ref [] in
    Linalg.Counters.set_stage_observer (fun name dt ->
        match List.assoc_opt name !stages with
        | Some t -> t := !t +. dt
        | None -> stages := (name, ref dt) :: !stages);
    let v = f () in
    Format.printf "=== pipeline counters ===@.";
    List.iter
      (fun (n, v) -> if v <> 0 then Format.printf "%-20s %d@." n v)
      (Linalg.Counters.all_counters ());
    if !stages <> [] then begin
      Format.printf "=== stage timers ===@.";
      Format.printf "%-14s %12s@." "stage" "self (ms)";
      List.iter
        (fun (name, t) -> Format.printf "%-14s %12.3f@." name (!t *. 1e3))
        (List.rev !stages)
    end;
    v
  end

(* usage errors (unknown kernel, bad flag values) exit 2, matching
   Diagnostics.exit_code for the Usage phase *)
let usage_exit = 2

(* the exit table of the group and of every subcommand's --help *)
let exits =
  [
    Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
    Cmd.Exit.info usage_exit
      ~doc:"usage error (unknown kernel, model or engine; bad flags or flag values).";
    Cmd.Exit.info 3 ~doc:"solver budget exhausted.";
    Cmd.Exit.info 4 ~doc:"scheduling failed.";
    Cmd.Exit.info 5 ~doc:"schedule verification failed.";
    Cmd.Exit.info 6 ~doc:"code generation failed.";
    Cmd.Exit.info 7 ~doc:"error-severity wisecheck findings (analyze).";
    Cmd.Exit.info Cmd.Exit.internal_error ~doc:"an unexpected exception (a bug).";
  ]

let load name size =
  match Kernels.Registry.find name with
  | entry ->
    let n = Option.value size ~default:entry.Kernels.Registry.model_size in
    entry.Kernels.Registry.program ~n ()
  | exception Not_found ->
    Printf.eprintf "unknown kernel %s; available kernels:\n" name;
    List.iter
      (fun (e : Kernels.Registry.entry) ->
        Printf.eprintf "  %-10s %s\n" e.Kernels.Registry.name
          e.Kernels.Registry.category)
      Kernels.Registry.all;
    exit usage_exit

(* Every pipeline job runs the model's pipeline here, once. Each run
   owns its Farkas memo (Fusion.Resilient), so nothing is reset
   between jobs. *)
let optimize job prog =
  let opt =
    Fusion.Model.optimize ~engine:job.engine ~reductions:job.reductions
      job.model prog
  in
  (match opt.Fusion.Model.resilience with
  | Some o when Fusion.Resilient.degraded o ->
    Format.eprintf "note: %a@." Fusion.Report.pp_resilience o
  | _ -> ());
  opt

(* ... and every certification here *)
let certify (opt : Fusion.Model.optimized) =
  let prog, deps, sched = Fusion.Model.artifacts opt in
  (prog, Analysis.Wisecheck.certify prog deps sched opt.Fusion.Model.ast)

(* the AST to print or simulate, tiled under --tile *)
let tiled ?tile (opt : Fusion.Model.optimized) =
  match (tile, opt.Fusion.Model.scheduler) with
  | Some size, Some res -> Codegen.Tile.of_result ~size res
  | Some _, None ->
    Printf.eprintf "note: --tile applies to polyhedral models only\n";
    opt.Fusion.Model.ast
  | None, _ -> opt.Fusion.Model.ast

(* --- list ------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-10s %-10s %-34s %-28s %s\n" "name" "suite" "category"
      "paper size" "model N";
    List.iter
      (fun (e : Kernels.Registry.entry) ->
        Printf.printf "%-10s %-10s %-34s %-28s %d\n" e.name e.suite e.category
          e.paper_size e.model_size)
      Kernels.Registry.all
  in
  Cmd.v (Cmd.info "list" ~exits ~doc:"List the benchmarks (Table 2)")
    Term.(const run $ const ())

(* --- show ------------------------------------------------------------- *)

let show_cmd =
  let run name size =
    let prog = load name size in
    Format.printf "%a@." Scop.Program.pp prog
  in
  Cmd.v (Cmd.info "show" ~exits ~doc:"Print the source program")
    Term.(const run $ kernel_arg $ size_arg)

(* --- deps ------------------------------------------------------------- *)

let dot_arg =
  let doc = "Emit the DDG as Graphviz dot instead of text." in
  Arg.(value & flag & info [ "dot" ] ~doc)

let deps_cmd =
  let run name size dot =
    let prog = load name size in
    let deps = Deps.Dep.analyze prog in
    let ddg = Deps.Ddg.build prog deps in
    if dot then begin
      print_string (Deps.Ddg.to_dot prog ddg);
      exit 0
    end;
    Format.printf "%a@.@." Deps.Ddg.pp ddg;
    let scc = Deps.Ddg.scc_kosaraju ddg in
    Format.printf "SCCs:";
    Array.iteri
      (fun id comp_id ->
        Format.printf " %s->%d" prog.Scop.Program.stmts.(id).Scop.Statement.name comp_id)
      scc;
    Format.printf "@.@.dependences (%d):@." (List.length deps);
    List.iter (fun d -> Format.printf "  %a@." Deps.Dep.pp d) deps
  in
  Cmd.v (Cmd.info "deps" ~exits ~doc:"Print dependences, DDG and SCCs")
    Term.(const run $ kernel_arg $ size_arg $ dot_arg)

(* --- opt -------------------------------------------------------------- *)

let opt_cmd =
  let run name job tile stats =
    with_stats stats @@ fun () ->
    let prog = load name job.size in
    let opt = optimize job prog in
    let ast = tiled ?tile opt in
    (match (opt.Fusion.Model.scheduler, opt.Fusion.Model.icc) with
    | Some res, _ ->
      Format.printf "=== schedule (%s) ===@.%a@." (Fusion.Model.name job.model)
        (Pluto.Sched.pp prog) res.Pluto.Scheduler.sched;
      Format.printf "=== partitions ===@.%a@.@." Fusion.Report.pp_table res
    | None, Some r ->
      Format.printf "=== icc nests ===@.";
      List.iter
        (fun (nst : Icc.Icc_model.nest) ->
          Format.printf "  nest (depth %d, %s):" nst.depth
            (if nst.parallel then "parallel" else "serial");
          List.iter
            (fun id ->
              Format.printf " %s" prog.Scop.Program.stmts.(id).Scop.Statement.name)
            nst.stmts;
          Format.printf "@.")
        r.Icc.Icc_model.nests
    | None, None -> assert false);
    Format.printf "=== generated code ===@.%a@." (Codegen.Ast.pp prog) ast
  in
  Cmd.v (Cmd.info "opt" ~exits ~doc:"Optimize and print the transformed code")
    Term.(const run $ kernel_arg $ job_args $ tile_arg $ stats_arg)

(* --- emit ------------------------------------------------------------- *)

let emit_cmd =
  let run name job =
    let prog = load name job.size in
    let opt = optimize job prog in
    print_string
      (Codegen.Cprint.program
         ~name:(name ^ "_" ^ Fusion.Model.name job.model)
         prog opt.Fusion.Model.ast)
  in
  Cmd.v
    (Cmd.info "emit" ~exits
       ~doc:"Emit a complete C program for the transformed code")
    Term.(const run $ kernel_arg $ job_args)

(* --- analyze ---------------------------------------------------------- *)

(* error-severity wisecheck findings exit with their own status,
   distinct from the pipeline phases (usage 2 .. codegen 6) *)
let analysis_exit = 7

let json_arg =
  let doc = "Emit findings as JSON (one object per line of \"findings\")." in
  Arg.(value & flag & info [ "json" ] ~doc)

let print_report_text prog label (r : Analysis.Wisecheck.report) =
  Format.printf "=== wisecheck %s ===@." label;
  Format.printf "%a@." (Analysis.Wisecheck.pp_report prog) r

let print_report_json prog ~kernel ~model (r : Analysis.Wisecheck.report) =
  print_string
    (Obs.Json.to_string_pretty
       (Obs.Json.Obj
          [
            ("kernel", Obs.Json.Str kernel);
            ("model", Obs.Json.Str model);
            ("errors", Obs.Json.Int r.Analysis.Wisecheck.errors);
            ("warnings", Obs.Json.Int r.Analysis.Wisecheck.warnings);
            ("infos", Obs.Json.Int r.Analysis.Wisecheck.infos);
            ( "findings",
              Obs.Json.List
                (List.map (Analysis.Finding.json prog)
                   r.Analysis.Wisecheck.findings) );
          ]))

let analyze_cmd =
  let run target job json stats =
    let jobs =
      match target with
      | Kernel k -> [ (k, job.model) ]
      | All ->
        List.concat_map
          (fun (e : Kernels.Registry.entry) ->
            List.map (fun m -> (e.Kernels.Registry.name, m)) Fusion.Model.all)
          Kernels.Registry.all
    in
    let errors =
      with_stats stats @@ fun () ->
      List.fold_left
        (fun errors (kname, model) ->
          let prog, report =
            certify (optimize { job with model } (load kname job.size))
          in
          let mname = Fusion.Model.name model in
          if json then print_report_json prog ~kernel:kname ~model:mname report
          else print_report_text prog (kname ^ " / " ^ mname) report;
          errors || report.Analysis.Wisecheck.errors > 0)
        false jobs
    in
    if errors then exit analysis_exit
  in
  let all_doc = "Analyze every registry kernel under every fusion model." in
  Cmd.v
    (Cmd.info "analyze" ~exits
       ~doc:
         "Independently certify the generated code (race freedom, scan \
          soundness, DDG lints); exit 7 on error-severity findings")
    Term.(const run $ target_arg ~all_doc $ job_args $ json_arg $ stats_arg)

(* --- trace / explain --------------------------------------------------- *)

let out_arg =
  let doc = "Output file (default: KERNEL.trace.json)." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let out_dir_arg =
  let doc = "Output directory for --all (one FILE per kernel)." in
  Arg.(value & opt string "traces" & info [ "out-dir" ] ~docv:"DIR" ~doc)

let trace_cmd =
  let run target job out out_dir stats =
    with_stats stats @@ fun () ->
    (* one recording per kernel: optimization and certification *)
    let trace_one kname out =
      let prog = load kname job.size in
      let (), events =
        Obs.Trace.with_recording (fun () -> ignore (certify (optimize job prog)))
      in
      let process =
        Printf.sprintf "wisefuse %s/%s" kname (Fusion.Model.name job.model)
      in
      let json = Obs.Export.chrome_trace ~process events in
      let oc = open_out out in
      output_string oc (Obs.Json.to_string_pretty json);
      close_out oc;
      Printf.printf "%s: wrote %s (%d events)\n" kname out (List.length events)
    in
    match target with
    | Kernel k -> trace_one k (Option.value out ~default:(k ^ ".trace.json"))
    | All ->
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      List.iter
        (fun (e : Kernels.Registry.entry) ->
          trace_one e.Kernels.Registry.name
            (Filename.concat out_dir (e.Kernels.Registry.name ^ ".json")))
        Kernels.Registry.all
  in
  let all_doc = "Trace every registry kernel under the fusion model." in
  Cmd.v
    (Cmd.info "trace" ~exits
       ~doc:
         "Run the pipeline under the span tracer and export a Chrome \
          trace-event JSON (load in chrome://tracing or ui.perfetto.dev)")
    Term.(const run $ target_arg ~all_doc $ job_args $ out_arg $ out_dir_arg
          $ stats_arg)

let explain_cmd =
  let run target job stats =
    with_stats stats @@ fun () ->
    let explain_one kname =
      let prog = load kname job.size in
      (* the recording covers optimization only: certification's solver
         events are not part of the decision chain *)
      let outcome, events =
        Obs.Trace.with_recording (fun () -> optimize job prog)
      in
      Format.printf "%a@." Fusion.Explain.pp
        { Fusion.Explain.kernel = kname; model = job.model; outcome; events };
      let _, r = certify outcome in
      Format.printf "wisecheck: %d error%s, %d warning%s, %d info@."
        r.Analysis.Wisecheck.errors
        (if r.Analysis.Wisecheck.errors = 1 then "" else "s")
        r.Analysis.Wisecheck.warnings
        (if r.Analysis.Wisecheck.warnings = 1 then "" else "s")
        r.Analysis.Wisecheck.infos
    in
    match target with
    | Kernel k -> explain_one k
    | All ->
      List.iter
        (fun (e : Kernels.Registry.entry) ->
          explain_one e.Kernels.Registry.name;
          Format.printf "@.")
        Kernels.Registry.all
  in
  let all_doc = "Explain every registry kernel under the fusion model." in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:
         "Explain the fusion decisions: pre-fusion clustering, every cut \
          with its justifying dependence, per-level ILP effort, \
          degradation rungs and the final partitioning")
    Term.(const run $ target_arg ~all_doc $ job_args $ stats_arg)

(* --- sim -------------------------------------------------------------- *)

let sim_cmd =
  let run name job cores tile simd stats =
    with_stats stats @@ fun () ->
    let prog = load name job.size in
    let params = prog.Scop.Program.default_params in
    let ast = tiled ?tile (optimize job prog) in
    (* semantic check against the original *)
    let m_ref = Machine.Interp.init_memory prog ~params in
    Machine.Interp.run_original prog m_ref ~params;
    let m = Machine.Interp.init_memory prog ~params in
    Machine.Interp.run prog ast m ~params;
    (match Machine.Interp.first_diff m_ref m with
    | None -> Format.printf "semantics: OK (matches the original program)@."
    | Some d -> Format.printf "semantics: MISMATCH %s@." d);
    let config =
      { (Machine.Perf.with_cores cores Machine.Perf.default) with
        Machine.Perf.simd_width = simd }
    in
    let st = Machine.Perf.simulate ~config prog ast ~params in
    Format.printf "%s on %d cores: %a@." (Fusion.Model.name job.model) cores
      Machine.Perf.pp_stats st;
    Format.printf "modeled time: %.3f ms@." (Machine.Perf.seconds st *. 1e3)
  in
  Cmd.v (Cmd.info "sim" ~exits ~doc:"Simulate on the machine model")
    Term.(const run $ kernel_arg $ job_args $ cores_arg $ tile_arg $ simd_arg
          $ stats_arg)

(* --- serve ------------------------------------------------------------ *)

let serve_cmd =
  let run socket stdio domains cache_cap max_pending deadline_ms
      max_deadline_ms max_line_bytes breaker_threshold breaker_ttl_s
      no_metrics trace_sample access_log =
    let config =
      {
        Serve.Server.domains;
        cache_capacity = cache_cap;
        max_pending;
        max_line_bytes;
        (* 0 = no default deadline (client-requested ones still apply) *)
        default_deadline_ms = (if deadline_ms = 0 then None else Some deadline_ms);
        max_deadline_ms;
        breaker_threshold;
        breaker_ttl_s;
        metrics = not no_metrics;
        trace_sample;
        access_log;
      }
    in
    let t =
      try Serve.Server.create ~config ()
      with Sys_error msg ->
        Printf.eprintf "serve: cannot open access log: %s\n" msg;
        exit usage_exit
    in
    match (socket, stdio) with
    | Some _, true ->
      Printf.eprintf "serve: --socket and --stdio are mutually exclusive\n";
      exit usage_exit
    | Some path, false -> Serve.Server.serve_socket t ~path
    | None, _ -> Serve.Server.serve_stdio t
  in
  let socket_arg =
    let doc = "Listen on a Unix domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let stdio_arg =
    let doc = "Serve stdin/stdout (the default when --socket is absent)." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let domains_arg =
    let doc =
      "Socket worker domains: connections served concurrently. Stdio \
       always answers on one domain, in request order."
    in
    Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let cache_cap_arg =
    let doc = "Capacity of the content-addressed response cache (entries)." in
    Arg.(value & opt positive_int 512 & info [ "cache-cap" ] ~docv:"N" ~doc)
  in
  let dflt = Serve.Server.default_config in
  let max_pending_arg =
    let doc =
      "Admission-control high-water mark: schedule requests are shed with a \
       typed \"overloaded\" error while more than $(docv) requests are \
       pending (in flight or queued)."
    in
    Arg.(value
         & opt positive_int dflt.Serve.Server.max_pending
         & info [ "max-pending" ] ~docv:"N" ~doc)
  in
  let deadline_ms_arg =
    let doc =
      "Default per-request solve deadline in milliseconds, applied when a \
       request carries no \"deadline_ms\" field (0 = unlimited). Requests \
       that overrun degrade down the resilience ladder and answer with a \
       typed degraded envelope."
    in
    Arg.(value
         & opt non_negative_int
             (match dflt.Serve.Server.default_deadline_ms with
             | Some d -> d
             | None -> 0)
         & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_deadline_ms_arg =
    let doc = "Cap on client-requested deadlines, in milliseconds." in
    Arg.(value
         & opt positive_int dflt.Serve.Server.max_deadline_ms
         & info [ "max-deadline-ms" ] ~docv:"MS" ~doc)
  in
  let max_line_bytes_arg =
    let doc =
      "Maximum request-line length in bytes; longer input answers a typed \
       \"oversized\" error and is never buffered in full."
    in
    Arg.(value
         & opt positive_int dflt.Serve.Server.max_line_bytes
         & info [ "max-line-bytes" ] ~docv:"BYTES" ~doc)
  in
  let breaker_threshold_arg =
    let doc =
      "Consecutive solve failures for one fingerprint that open its circuit \
       breaker (further requests answer a typed \"breaker\" error)."
    in
    Arg.(value
         & opt positive_int dflt.Serve.Server.breaker_threshold
         & info [ "breaker-threshold" ] ~docv:"N" ~doc)
  in
  let breaker_ttl_arg =
    let doc = "Seconds an open circuit breaker keeps rejecting before a \
               half-open probe is allowed." in
    Arg.(value
         & opt positive_float dflt.Serve.Server.breaker_ttl_s
         & info [ "breaker-ttl-s" ] ~docv:"S" ~doc)
  in
  let no_metrics_arg =
    let doc =
      "Disable live telemetry (the \"metrics\" op answers a placeholder; \
       instruments become no-ops — the measured zero-cost path)."
    in
    Arg.(value & flag & info [ "no-metrics" ] ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Record a span trace for every $(docv)-th request (0 = never); \
       sampled responses carry \"trace_id\" and a compact \"trace\" span \
       summary."
    in
    Arg.(value
         & opt non_negative_int 0
         & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per answered request to $(docv) (id, \
       fingerprint, outcome, cache verdict, rung, engine, deadline/overrun, \
       latency), written by a dedicated writer domain."
    in
    Arg.(value
         & opt (some string) None
         & info [ "access-log" ] ~docv:"PATH" ~doc)
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the scheduling daemon: line-delimited JSON requests over stdio \
          or a Unix socket, answered from a content-addressed cross-request \
          cache, hardened with per-request deadlines, admission control and \
          a per-fingerprint circuit breaker (see the README's Serving and \
          Hardened serving sections for the protocol)")
    Term.(const run $ socket_arg $ stdio_arg $ domains_arg $ cache_cap_arg
          $ max_pending_arg $ deadline_ms_arg $ max_deadline_ms_arg
          $ max_line_bytes_arg $ breaker_threshold_arg $ breaker_ttl_arg
          $ no_metrics_arg $ trace_sample_arg $ access_log_arg)

(* --- metrics (one-shot scraper) --------------------------------------- *)

(* Connect to a serving daemon's Unix socket, send one {"op":"metrics"}
   request, unwrap the Prometheus text from the JSON envelope and print
   it — the bridge between the line-delimited protocol and an actual
   scrape pipeline (curl-style usage in cron/CI). Exits 1 on connection
   or protocol failure so scrapers can alert on a dead daemon. *)
let metrics_cmd =
  let run socket op =
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "metrics: %s\n" msg;
          exit 1)
        fmt
    in
    let line =
      match
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            output_string oc
              (Printf.sprintf "{\"id\":\"metrics-cli\",\"op\":%S}\n" op);
            flush oc;
            input_line ic)
      with
      | exception Unix.Unix_error (e, _, _) ->
        fail "cannot reach %s: %s" socket (Unix.error_message e)
      | exception End_of_file -> fail "daemon closed the connection"
      | line -> line
    in
    match Obs.Json.parse line with
    | Error msg -> fail "unparseable response: %s" msg
    | Ok j -> (
      let member = Obs.Json.member in
      let str n v = Option.bind (member n v) Obs.Json.to_string_opt in
      match str "status" j with
      | Some "ok" when op = "metrics" -> (
        match Option.bind (member "metrics" j) (str "text") with
        | Some text -> print_string text
        | None -> fail "response carries no metrics text")
      | Some "ok" ->
        (* --op health: print the whole envelope for probes *)
        print_endline (Obs.Json.to_string_pretty j)
      | _ ->
        let code =
          Option.value
            (Option.bind (member "error" j) (str "code"))
            ~default:"?"
        in
        let message =
          Option.value
            (Option.bind (member "error" j) (str "message"))
            ~default:line
        in
        fail "daemon answered %s: %s" code message)
  in
  let socket_arg =
    let doc = "Unix domain socket of the serving daemon." in
    Arg.(required
         & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let op_arg =
    let doc = "Protocol op to send: \"metrics\" (prints the Prometheus \
               text) or \"health\" (prints the envelope)." in
    Arg.(value & opt (enum [ ("metrics", "metrics"); ("health", "health") ])
           "metrics"
         & info [ "op" ] ~docv:"OP" ~doc)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~exits:
         (Cmd.Exit.info 1 ~doc:"the daemon is unreachable or answers an error."
         :: exits)
       ~doc:
         "One-shot telemetry scrape of a running daemon over its Unix \
          socket: sends {\"op\": \"metrics\"} and prints the Prometheus \
          text exposition (exit 1 if the daemon is unreachable)")
    Term.(const run $ socket_arg $ op_arg)

let () =
  let doc = "loop fusion in the polyhedral framework (PPoPP'14 reproduction)" in
  let info = Cmd.info "wisefuse" ~version:"1.0" ~doc ~exits in
  let cmds =
    [
      list_cmd; show_cmd; deps_cmd; opt_cmd; emit_cmd; sim_cmd; analyze_cmd;
      trace_cmd; explain_cmd; serve_cmd; metrics_cmd;
    ]
  in
  (* cmdliner's parse errors are usage errors (2); a diagnostic escaping
     the pipeline exits with its phase's code (usage 2, budget 3,
     scheduling 4, verification 5, codegen 6); evaluating with
     [~catch:false] lets both reach this handler. Any other exception
     is a bug and exits 125. *)
  match Cmd.eval_value ~catch:false (Cmd.group info cmds) with
  | Ok (`Ok () | `Version | `Help) -> exit Cmd.Exit.ok
  | Error (`Parse | `Term) -> exit usage_exit
  | Error `Exn -> exit Cmd.Exit.internal_error
  | exception Pluto.Diagnostics.Error d ->
    if !verbose then Format.eprintf "wisefuse: %a@." Pluto.Diagnostics.pp_verbose d
    else
      Format.eprintf "wisefuse: %a (re-run with --verbose for details)@."
        Pluto.Diagnostics.pp d;
    exit (Pluto.Diagnostics.exit_code d)
  | exception e ->
    let bt = Printexc.get_backtrace () in
    Format.eprintf "wisefuse: internal error, uncaught exception:@\n%s@\n%s@?"
      (Printexc.to_string e) bt;
    exit Cmd.Exit.internal_error
