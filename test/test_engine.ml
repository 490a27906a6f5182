(* Differential tests of the pluggable scheduling engines: the lp-dfp
   path (LP relaxation + clustering) against the branch-and-bound ILP
   reference, over the whole kernel registry and the generated
   large-SCoP shapes. *)

let polyhedral_models =
  List.filter (fun m -> m <> Fusion.Model.Icc) Fusion.Model.all

(* --- engine selection ----------------------------------------------------- *)

let test_engine_names () =
  List.iter
    (fun (s, c) ->
      Alcotest.(check bool) (s ^ " parses") true (Pluto.Engine.of_string s = Some c);
      Alcotest.(check string) (s ^ " round-trips") s (Pluto.Engine.choice_name c))
    [
      ("ilp", Pluto.Engine.Fixed Pluto.Engine.Ilp);
      ("lp-dfp", Pluto.Engine.Fixed Pluto.Engine.Lp_dfp);
      ("auto", Pluto.Engine.Auto);
    ];
  Alcotest.(check bool) "unknown rejected" true
    (Pluto.Engine.of_string "simplex" = None)

let test_engine_resolve () =
  let t = Pluto.Engine.auto_threshold in
  Alcotest.(check bool) "auto below threshold -> ilp" true
    (Pluto.Engine.resolve Pluto.Engine.Auto ~nstmts:(t - 1) = Pluto.Engine.Ilp);
  Alcotest.(check bool) "auto at threshold -> lp-dfp" true
    (Pluto.Engine.resolve Pluto.Engine.Auto ~nstmts:t = Pluto.Engine.Lp_dfp);
  Alcotest.(check bool) "fixed wins regardless of size" true
    (Pluto.Engine.resolve (Pluto.Engine.Fixed Pluto.Engine.Ilp) ~nstmts:1000
    = Pluto.Engine.Ilp);
  (* every registry kernel stays on the exact engine under Auto, so the
     10-kernel suite is unchanged by this PR *)
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      let prog = Kernels.Registry.build e in
      Alcotest.(check bool)
        (e.name ^ " resolves to ilp under auto")
        true
        (Pluto.Engine.resolve Pluto.Engine.Auto
           ~nstmts:(Array.length prog.Scop.Program.stmts)
        = Pluto.Engine.Ilp))
    Kernels.Registry.all

(* --- one engine run ------------------------------------------------------- *)

(* Run one (kernel, config) pair on a fixed engine. The scheduler's
   always-on exit verification already enforces check_complete +
   check_legal on every result; we re-assert both here so a future
   change to that invariant fails loudly, and additionally require
   wisecheck's independent race certification of the generated AST. *)
let schedule ~engine cfg prog deps =
  match
    Pluto.Scheduler.schedule_with_deps ~engine ~memo:(Pluto.Farkas.memo ()) cfg
      prog deps
  with
  | Ok r -> r
  | Error d -> Alcotest.failf "%s: %s" prog.Scop.Program.name d.Pluto.Diagnostics.code

let run_engine name cfg prog deps kind =
  let r = schedule ~engine:(Pluto.Engine.Fixed kind) cfg prog deps in
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s: engine recorded" name (Pluto.Engine.kind_name kind))
    true
    (r.Pluto.Scheduler.engine = kind);
  (match Pluto.Satisfy.check_complete prog r.Pluto.Scheduler.sched with
  | Ok () -> ()
  | Error d -> Alcotest.failf "%s: incomplete: %s" name d.Pluto.Diagnostics.code);
  (match
     Pluto.Satisfy.check_legal prog r.Pluto.Scheduler.true_deps
       r.Pluto.Scheduler.sched
   with
  | Ok () -> ()
  | Error (d : Deps.Dep.t) ->
    Alcotest.failf "%s: illegal dep S%d->S%d" name d.src d.dst);
  let ast = Codegen.Scan.of_result r in
  let findings =
    Analysis.Race.check prog r.Pluto.Scheduler.all_deps r.Pluto.Scheduler.sched
      ast
  in
  (match
     List.find_opt
       (fun (f : Analysis.Finding.t) ->
         f.Analysis.Finding.kind = Analysis.Finding.Racy_parallel)
       findings
   with
  | Some f -> Alcotest.failf "%s: racy parallel mark: %s" name f.message
  | None -> ());
  r

(* --- kernels x models differential ---------------------------------------- *)

(* Kernels on which the clustering recovery is exact for every model:
   the lp-dfp schedule lands in the same fusion partition as the ILP
   one. Kernels whose LP vertices round differently may fuse
   differently (still legal + certified); they are listed in [inexact]
   so a change in either direction is caught. *)
let exact_kernels =
  [ "advect"; "applu"; "bt"; "gemsfdtd"; "gemver"; "lu"; "sp"; "swim"; "tce"; "wupwise" ]

let test_differential () =
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      let prog = Kernels.Registry.build e in
      let deps = Deps.Dep.analyze prog in
      List.iter
        (fun m ->
          let cfg = Fusion.Model.scheduler_config m in
          let name = Printf.sprintf "%s/%s" e.name (Fusion.Model.name m) in
          let ilp = run_engine name cfg prog deps Pluto.Engine.Ilp in
          let dfp = run_engine name cfg prog deps Pluto.Engine.Lp_dfp in
          let agree =
            Pluto.Scheduler.partitions ilp = Pluto.Scheduler.partitions dfp
          in
          if List.mem e.name exact_kernels then
            Alcotest.(check bool)
              (name ^ ": fusion partitions agree")
              true agree)
        polyhedral_models)
    Kernels.Registry.all

(* icc has no scheduler, but the engine knob must still be accepted
   end-to-end (the daemon passes it for every model) *)
let test_icc_engine_ignored () =
  let prog = Kernels.Registry.build (Kernels.Registry.find "gemver") in
  let o =
    Fusion.Model.optimize
      ~engine:(Pluto.Engine.Fixed Pluto.Engine.Lp_dfp)
      Fusion.Model.Icc prog
  in
  Alcotest.(check bool) "icc ran" true (o.Fusion.Model.icc <> None)

(* --- generated large SCoPs ------------------------------------------------ *)

(* On the generated shapes the lp-dfp happy path must hold: a legal,
   certified schedule with not a single branch-and-bound node. *)
let test_large_scops () =
  List.iter
    (fun shape ->
      let prog = Kernels.Scopgen.generate shape ~stmts:60 in
      let deps = Deps.Dep.analyze prog in
      let cfg = Fusion.Model.scheduler_config Fusion.Model.Wisefuse in
      Linalg.Counters.reset ();
      let name = "scopgen-" ^ Kernels.Scopgen.shape_name shape in
      let r = run_engine name cfg prog deps Pluto.Engine.Lp_dfp in
      Alcotest.(check int)
        (name ^ ": zero B&B nodes on the lp-dfp path")
        0 Linalg.Counters.(get bb_nodes);
      Alcotest.(check bool)
        (name ^ ": LP relaxations ran")
        true
        (Linalg.Counters.(get lp_relax_solves) > 0);
      Alcotest.(check bool)
        (name ^ ": clustering ran")
        true
        (Linalg.Counters.(get cluster_rounds) > 0);
      (* auto selects lp-dfp for programs this large *)
      let auto =
        schedule ~engine:Pluto.Engine.Auto cfg prog deps
      in
      Alcotest.(check bool)
        (name ^ ": auto resolves to lp-dfp at 60 stmts")
        true
        (auto.Pluto.Scheduler.engine = Pluto.Engine.Lp_dfp);
      ignore r)
    Kernels.Scopgen.[ Chain; Stencil; Blocked ]

(* --- lp-dfp dead ends -------------------------------------------------------- *)

(* Stencils dead-end on infeasible LP relaxations and reach their next
   feasible state through a chain of fallback cuts (every stencil of 10
   or more statements has one). The lp-dfp engine bisects that chain;
   these digests of the emitted C were recorded with the one-cut-per-
   solve scan, so a bisection that lands on any other state shows
   here. *)
let stencil_c_pins =
  [ (12, "1a98d9fba5d619d2fb97bbd221571a94");
    (24, "ede191b00d143c9bdb02f152c8d5f464");
    (60, "939947af0179eac7d2a6786c551baf5c") ]

let test_stencil_c_pin (n, md5) () =
  let prog = Kernels.Scopgen.generate Kernels.Scopgen.Stencil ~stmts:n in
  let cfg = Fusion.Model.scheduler_config Fusion.Model.Wisefuse in
  let r =
    schedule ~engine:(Pluto.Engine.Fixed Pluto.Engine.Lp_dfp) cfg prog
      (Deps.Dep.analyze prog)
  in
  let c =
    Codegen.Cprint.program ~name:(Printf.sprintf "stencil%d" n) prog
      (Codegen.Scan.of_result r)
  in
  Alcotest.(check string)
    (Printf.sprintf "stencil%d lp-dfp C digest" n)
    md5
    (Digest.to_hex (Digest.string c))

(* stencil40 bisects a 39-cut chain to its first feasible state at cut
   31, among others: the one-cut scan must agree on every level. *)
let test_stencil_bisection () =
  let prog = Kernels.Scopgen.generate Kernels.Scopgen.Stencil ~stmts:40 in
  let cfg = Fusion.Model.scheduler_config Fusion.Model.Wisefuse in
  let events, problem =
    Cut_reference.compare ~engine:(Pluto.Engine.Fixed Pluto.Engine.Lp_dfp) cfg
      prog (Deps.Dep.analyze prog)
  in
  Option.iter Alcotest.fail problem;
  Alcotest.(check int) "longest bisected chain" 39
    (Cut_reference.longest_chain events)

(* --- the Lp_relaxed resilience rung --------------------------------------- *)

(* A node budget of zero kills every branch-and-bound solve but charges
   pure LP nothing: the primary (ILP) attempt must fail, and the ladder
   must settle on the lp-relaxed rung without touching distribution. *)
let test_lp_relaxed_rung () =
  let prog = Kernels.Scopgen.generate Kernels.Scopgen.Chain ~stmts:12 in
  let budget = Linalg.Budget.make ~nodes:0 () in
  let o =
    Fusion.Resilient.optimize ~budget
      ~config:(Fusion.Model.scheduler_config Fusion.Model.Wisefuse)
      prog
  in
  Alcotest.(check string) "settled on lp-relaxed" "lp-relaxed"
    (Fusion.Resilient.rung_name o.Fusion.Resilient.rung);
  Alcotest.(check bool) "degraded" true (Fusion.Resilient.degraded o);
  Alcotest.(check int) "one note (the primary failure)" 1
    (List.length o.Fusion.Resilient.notes)

let () =
  Alcotest.run "engine"
    [
      ( "selection",
        [
          Alcotest.test_case "names" `Quick test_engine_names;
          Alcotest.test_case "resolve" `Quick test_engine_resolve;
        ] );
      ( "differential",
        [
          Alcotest.test_case "kernels x models" `Slow test_differential;
          Alcotest.test_case "icc ignores engine" `Quick test_icc_engine_ignored;
        ] );
      ( "scale",
        [
          Alcotest.test_case "generated large SCoPs" `Slow test_large_scops;
          Alcotest.test_case "lp-relaxed rung" `Quick test_lp_relaxed_rung;
        ] );
      ( "dead ends",
        List.map
          (fun ((n, _) as pin) ->
            Alcotest.test_case (Printf.sprintf "stencil%d C digest" n) `Slow
              (test_stencil_c_pin pin))
          stencil_c_pins
        @ [ Alcotest.test_case "stencil40 bisection matches the scan" `Slow
              test_stencil_bisection ] );
    ]
