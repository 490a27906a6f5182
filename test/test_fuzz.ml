(* Random-SCoP fuzzing of the whole pipeline:
   build -> dependence analysis -> schedule (through the degradation
   ladder) -> verification -> codegen. Two properties, checked on every
   generated program:

   - crash-freedom: no uncaught exception anywhere in the pipeline;
   - legality: the schedule that comes out — degraded or not — passes
     check_complete and check_legal;
   - race freedom: wisecheck's independent conflict-system analysis
     certifies every Parallel mark of the generated AST.

   The generator also flips two test hooks ([Linalg.Chaos]: forced
   cold re-solves, forced bignum promotion) and varies the solver budget
   (unlimited / 1 pivot / 50 pivots), so solver-stress paths get the
   same coverage as the happy path. A case that does not force bignum
   promotion runs a second time under it, which also sends every LP to
   the rational simplex tableau instead of the native one: both runs
   must reach the same schedule at the same counts.

   Case count defaults to 50; the CI fuzz smoke job raises it with
   FUZZ_SCOPS=200. *)

let count =
  match Sys.getenv_opt "FUZZ_SCOPS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 50)
  | None -> 50

(* --- program specs -------------------------------------------------------- *)

(* All arrays are N x N; loops run over [1, N-2] and every access
   offsets an iterator by -1/0/+1, so accesses are in bounds by
   construction. A depth-1 nest indexes arrays as [i+o1][i+o2]. *)

type stmt_spec = {
  target : int;  (* array id, 0..2 *)
  write_off : int * int;
  reads : (int * (int * int)) list;  (* (array id, offsets) *)
}

type nest_spec = { depth : int (* 1 or 2 *); stmts : stmt_spec list }

type case_spec = {
  nests : nest_spec list;
  model : int;  (* 0..3 -> Nofuse/Smartfuse/Maxfuse/Wisefuse *)
  budget_kind : int;  (* 0 unlimited, 1 one pivot, 2 fifty pivots *)
  chaos_warm : bool;
  chaos_big : bool;
}

let model_of = function
  | 0 -> Fusion.Model.Nofuse
  | 1 -> Fusion.Model.Smartfuse
  | 2 -> Fusion.Model.Maxfuse
  | _ -> Fusion.Model.Wisefuse

let budget_of = function
  | 1 -> Linalg.Budget.make ~pivots:1 ()
  | 2 -> Linalg.Budget.make ~pivots:50 ()
  | _ -> Linalg.Budget.make ()

(* An injected reduction shape: accumulates into its own dedicated
   array (so no interleaved writer can spoil the proof) with one of the
   four associative-commutative operators. *)
type red_spec = {
  rop : int;  (* 0 +, 1 *, 2 min, 3 max *)
  rdepth : int;  (* 1 or 2 *)
  racc_col : bool;  (* depth 2 only: accumulator indexed by the inner j *)
  rreads : (int * (int * int)) list;  (* data arrays read, as in stmt_spec *)
}

let build_program ?(reds = []) spec =
  let open Scop.Build in
  let ctx = create ~name:"fuzz" ~params:[ ("N", 10) ] in
  let n = param ctx "N" in
  let arrs =
    [| array ctx "A" [ n; n ]; array ctx "B" [ n; n ]; array ctx "C" [ n; n ] |]
  in
  let sid = ref 0 in
  let index i j (o1, o2) = [ i +~ ci o1; j +~ ci o2 ] in
  let emit st i j =
    let rhs =
      List.fold_left
        (fun acc (a, off) -> acc +: arrs.(a).%(index i j off))
        (f 1.0) st.reads
    in
    let name = Printf.sprintf "S%d" !sid in
    incr sid;
    assign ctx name arrs.(st.target) (index i j st.write_off) rhs
  in
  let lb = ci 1 and ub = n -~ ci 2 in
  List.iter
    (fun nest ->
      if nest.depth = 1 then
        loop ctx "i" ~lb ~ub (fun i ->
            List.iter (fun st -> emit st i i) nest.stmts)
      else
        loop ctx "i" ~lb ~ub (fun i ->
            loop ctx "j" ~lb ~ub (fun j ->
                List.iter (fun st -> emit st i j) nest.stmts)))
    spec.nests;
  List.iteri
    (fun k (r : red_spec) ->
      let acc = array ctx (Printf.sprintf "acc%d" k) [ n ] in
      let rhs_data i j =
        List.fold_left
          (fun e (a, off) -> e +: arrs.(a).%(index i j off))
          (f 1.0) r.rreads
      in
      let combine acc_ld e =
        match r.rop with
        | 0 -> acc_ld +: e
        | 1 -> acc_ld *: e
        | 2 -> min_ acc_ld e
        | _ -> max_ acc_ld e
      in
      let name = Printf.sprintf "R%d" k in
      if r.rdepth = 1 then
        loop ctx "i" ~lb ~ub (fun i ->
            assign ctx name acc [ ci 0 ]
              (combine (acc.%([ ci 0 ])) (rhs_data i i)))
      else
        loop ctx "i" ~lb ~ub (fun i ->
            loop ctx "j" ~lb ~ub (fun j ->
                let ix = if r.racc_col then [ j ] else [ ci 0 ] in
                assign ctx name acc ix (combine (acc.%(ix)) (rhs_data i j)))))
    reds;
  finish ctx

(* --- generator ------------------------------------------------------------ *)

let gen_spec =
  QCheck.Gen.(
    let off = int_range (-1) 1 in
    let offs = pair off off in
    let stmt =
      map3
        (fun target write_off reads -> { target; write_off; reads })
        (int_range 0 2) offs
        (list_size (int_range 0 3) (pair (int_range 0 2) offs))
    in
    let nest =
      map2
        (fun depth stmts -> { depth; stmts })
        (int_range 1 2)
        (list_size (int_range 1 2) stmt)
    in
    map
      (fun ((nests, model), (budget_kind, (chaos_warm, chaos_big))) ->
        { nests; model; budget_kind; chaos_warm; chaos_big })
      (pair
         (pair (list_size (int_range 1 3) nest) (int_range 0 3))
         (pair (int_range 0 2) (pair bool bool))))

let print_spec spec =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "model=%s budget=%d warm=%b big=%b\n"
       (Fusion.Model.name (model_of spec.model))
       spec.budget_kind spec.chaos_warm spec.chaos_big);
  List.iter
    (fun nest ->
      Buffer.add_string b (Printf.sprintf "  nest depth=%d\n" nest.depth);
      List.iter
        (fun st ->
          Buffer.add_string b
            (Printf.sprintf "    arr%d[%d,%d] = 1.0%s\n" st.target
               (fst st.write_off) (snd st.write_off)
               (String.concat ""
                  (List.map
                     (fun (a, (o1, o2)) ->
                       Printf.sprintf " + arr%d[%d,%d]" a o1 o2)
                     st.reads))))
        nest.stmts)
    spec.nests;
  Buffer.contents b

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* --- the property --------------------------------------------------------- *)

(* The pipeline under the case's hooks, with [big_path] forced on when
   [big], and every counter it moved (each run owns its counters and
   its budget). *)
let optimize spec ~big =
  Linalg.Chaos.arm ~cold_reoptimize:spec.chaos_warm ~big_path:(big || spec.chaos_big)
    (fun () ->
      Linalg.Counters.scoped (fun () ->
          let prog = build_program spec in
          let config = Fusion.Model.scheduler_config (model_of spec.model) in
          let budget = budget_of spec.budget_kind in
          let o = Fusion.Resilient.optimize ~budget ~config prog in
          (prog, o, Linalg.Counters.all_counters ())))

(* the counters a run on the rational tableau must reproduce: all but
   the bignum boundary crossings, which forced promotion moves by
   design *)
let solver_counts counters =
  List.filter (fun (name, _) -> name <> "big_promotions" && name <> "big_demotions") counters

let sched (o : Fusion.Resilient.outcome) = o.result.Pluto.Scheduler.sched

(* A run [(o, counters)] and its rerun under [big_path] reach the same
   schedule at the same solver counts. *)
let check_rational (o, counters) (o', counters') =
  if sched o' <> sched o then
    QCheck.Test.fail_report "the rational tableau reached another schedule"
  else if solver_counts counters' <> solver_counts counters then
    QCheck.Test.fail_reportf "the rational tableau moved the counters: %s"
      (String.concat ", "
         (List.filter_map
            (fun ((name, v), (_, v')) ->
              if v = v' then None else Some (Printf.sprintf "%s %d -> %d" name v v'))
            (List.combine (solver_counts counters) (solver_counts counters'))))

let run_case spec =
  let prog, o, counters = optimize spec ~big:false in
  (if not spec.chaos_big then
     let _, o', counters' = optimize spec ~big:true in
     check_rational (o, counters) (o', counters'));
  Linalg.Chaos.arm ~cold_reoptimize:spec.chaos_warm ~big_path:spec.chaos_big
    (fun () ->
      let r = o.Fusion.Resilient.result in
      (match
         Pluto.Satisfy.check_complete r.Pluto.Scheduler.prog
           r.Pluto.Scheduler.sched
       with
      | Ok () -> ()
      | Error d ->
        QCheck.Test.fail_reportf "incomplete schedule: %s (%s rung)"
          d.Pluto.Diagnostics.code
          (Fusion.Resilient.rung_name o.Fusion.Resilient.rung));
      (match
         Pluto.Satisfy.check_legal r.Pluto.Scheduler.prog
           r.Pluto.Scheduler.true_deps r.Pluto.Scheduler.sched
       with
      | Ok () -> ()
      | Error d ->
        QCheck.Test.fail_reportf "illegal schedule: dep %d->%d (%s rung)"
          d.Deps.Dep.src d.Deps.Dep.dst
          (Fusion.Resilient.rung_name o.Fusion.Resilient.rung));
      (* codegen crash-freedom: emit a complete C program and drop it *)
      ignore
        (Codegen.Cprint.program ~name:"fuzz" prog o.Fusion.Resilient.ast);
      (* wisecheck race certification: every Parallel mark of the
         generated AST must be conflict-free under the final schedule *)
      let races =
        Analysis.Race.check r.Pluto.Scheduler.prog r.Pluto.Scheduler.all_deps
          r.Pluto.Scheduler.sched o.Fusion.Resilient.ast
      in
      (match
         List.find_opt
           (fun (f : Analysis.Finding.t) ->
             f.Analysis.Finding.kind = Analysis.Finding.Racy_parallel)
           races
       with
      | Some f ->
        QCheck.Test.fail_reportf "racy parallel mark: %s (%s rung)"
          f.Analysis.Finding.message
          (Fusion.Resilient.rung_name o.Fusion.Resilient.rung)
      | None -> ());
      true)

let fuzz_pipeline =
  QCheck.Test.make ~name:"random SCoPs: pipeline crash-free and legal" ~count
    arb_spec run_case

(* --- injected reduction shapes -------------------------------------------- *)

(* Random SCoPs with reduction statements injected alongside the
   ordinary ones, round-tripped through the reduction-aware pipeline.
   Properties, on every generated program:

   - the detector proves every injected shape (each accumulates into
     its own array, so nothing can spoil the proof);
   - reduction-aware scheduling stays complete and legal — legality
     checked against the tagged dependences, exactly as the pipeline's
     own rungs check it;
   - wisecheck certifies the result with zero errors: every
     Parallel_reduction mark must re-prove from program text. *)

type red_case = { rbase : case_spec; reds : red_spec list }

let gen_red =
  QCheck.Gen.(
    let off = int_range (-1) 1 in
    let offs = pair off off in
    let red =
      map3
        (fun rop (rdepth, racc_col) rreads -> { rop; rdepth; racc_col; rreads })
        (int_range 0 3)
        (pair (int_range 1 2) bool)
        (list_size (int_range 0 2) (pair (int_range 0 2) offs))
    in
    map2
      (fun rbase reds -> { rbase; reds })
      gen_spec
      (list_size (int_range 1 3) red))

let op_sym = function 0 -> "+" | 1 -> "*" | 2 -> "min" | _ -> "max"

let print_red rc =
  print_spec rc.rbase
  ^ String.concat ""
      (List.mapi
         (fun k r ->
           Printf.sprintf "  R%d: acc%d[%s] %s= data (depth %d, %d reads)\n" k
             k
             (if r.rdepth = 2 && r.racc_col then "j" else "0")
             (op_sym r.rop) r.rdepth (List.length r.rreads))
         rc.reds)

let run_red rc =
  let prog = build_program ~reds:rc.reds rc.rbase in
  let deps = Deps.Dep.analyze prog in
  let facts, _ = Analysis.Reduction.detect prog deps in
  Array.iteri
    (fun idx (s : Scop.Statement.t) ->
      if String.length s.name > 0 && s.name.[0] = 'R' then
        match Analysis.Reduction_info.for_stmt facts idx with
        | Some _ -> ()
        | None ->
          QCheck.Test.fail_reportf "injected reduction %s not detected" s.name)
    prog.Scop.Program.stmts;
  let config = Fusion.Model.scheduler_config (model_of rc.rbase.model) in
  let o = Fusion.Resilient.optimize ~reductions:true ~config prog in
  let r = o.Fusion.Resilient.result in
  (match
     Pluto.Satisfy.check_complete r.Pluto.Scheduler.prog r.Pluto.Scheduler.sched
   with
  | Ok () -> ()
  | Error d ->
    QCheck.Test.fail_reportf "incomplete schedule: %s" d.Pluto.Diagnostics.code);
  (match
     Pluto.Satisfy.check_legal r.Pluto.Scheduler.prog
       r.Pluto.Scheduler.true_deps r.Pluto.Scheduler.sched
   with
  | Ok () -> ()
  | Error d ->
    QCheck.Test.fail_reportf "illegal schedule: dep %d->%d" d.Deps.Dep.src
      d.Deps.Dep.dst);
  let rep =
    Analysis.Wisecheck.certify r.Pluto.Scheduler.prog r.Pluto.Scheduler.all_deps
      r.Pluto.Scheduler.sched o.Fusion.Resilient.ast
  in
  if rep.Analysis.Wisecheck.errors > 0 then
    QCheck.Test.fail_reportf "wisecheck errors on reduction-injected SCoP: %s"
      (String.concat "; "
         (List.filter_map
            (fun (fi : Analysis.Finding.t) ->
              if fi.Analysis.Finding.severity = Analysis.Finding.Error then
                Some fi.Analysis.Finding.message
              else None)
            rep.Analysis.Wisecheck.findings));
  true

let fuzz_reductions =
  QCheck.Test.make
    ~name:"injected reductions: detect, schedule and certify"
    ~count:(max 5 (count / 2))
    (QCheck.make ~print:print_red gen_red)
    run_red

(* --- large generated SCoPs ------------------------------------------------ *)

(* The same properties over Kernels.Scopgen's many-statement shapes,
   with the engine itself fuzzed (ilp / lp-dfp / auto). Statement
   counts go up to FUZZ_STMTS (default 80); the CI robustness job's
   "Fuzz large SCoPs (up to 160 statements)" step sets it to 160. Far
   fewer cases than the random-SCoP property: each one is a whole
   hundred-ish-statement pipeline run.

   A case whose engine resolves to lp-dfp is scheduled three times
   more, unbudgeted (four under WISEFUSE_BUDGET_MS, which the first run
   obeys): once as is, where a level whose LP relaxation is
   infeasible bisects its fallback-cut chain, and once under
   [Chaos.hooks.linear_cuts], which takes one cut per solve. Both must
   give the same schedule, outer partition and C, and emit the same
   cut events, and each bisection must land on a feasible state. And
   once under [big_path], where every LP solve and warm re-solve runs
   on the rational tableau: it must reach the same schedule at the
   same solver counts. The lp-dfp towers' warm re-solves run on
   tableaux of thousands of cells, which the pipeline property's small
   programs never build.

   Every run also schedules one fixed stencil of 12 statements under
   lp-dfp, which bisects a chain of 2 or more cuts, and the group fails
   when no case did. *)

let fuzz_stmts =
  match Sys.getenv_opt "FUZZ_STMTS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 9 -> n | _ -> 80)
  | None -> 80

let large_count = max 3 (count / 10)

type large_spec = { shape : int; lstmts : int; engine : int; lmodel : int }

let shapes = Kernels.Scopgen.[ Chain; Stencil; Blocked ]

let gen_large =
  QCheck.Gen.(
    map
      (fun ((shape, lstmts), (engine, lmodel)) ->
        { shape; lstmts; engine; lmodel })
      (pair
         (pair (int_range 0 2) (int_range 10 fuzz_stmts))
         (pair (int_range 0 2) (int_range 0 3))))

let print_large spec =
  Printf.sprintf "shape=%s stmts=%d engine=%s model=%s"
    (Kernels.Scopgen.shape_name (List.nth shapes spec.shape))
    spec.lstmts
    (Pluto.Engine.choice_name
       (match spec.engine with
       | 0 -> Pluto.Engine.Fixed Pluto.Engine.Ilp
       | 1 -> Pluto.Engine.Fixed Pluto.Engine.Lp_dfp
       | _ -> Pluto.Engine.Auto))
    (Fusion.Model.name (model_of spec.lmodel))

(* lp-dfp cases drawn, and how many of them bisected a fallback-cut
   chain of 2 or more cuts *)
let dfp_cases = ref 0
let chain_cases = ref 0

let check_linear_cuts ~engine config prog =
  let events, problem =
    Cut_reference.compare ~engine config prog (Deps.Dep.analyze prog)
  in
  incr dfp_cases;
  if Cut_reference.longest_chain events >= 2 then incr chain_cases;
  Option.iter QCheck.Test.fail_report problem

let () =
  at_exit (fun () ->
      if !dfp_cases > 0 then
        Format.printf
          "@.large: %d of %d lp-dfp cases bisected a fallback-cut chain of 2+ cuts@."
          !chain_cases !dfp_cases)

let run_large spec =
  let shape = List.nth shapes spec.shape in
  let engine =
    match spec.engine with
    | 0 -> Pluto.Engine.Fixed Pluto.Engine.Ilp
    | 1 -> Pluto.Engine.Fixed Pluto.Engine.Lp_dfp
    | _ -> Pluto.Engine.Auto
  in
  let prog = Kernels.Scopgen.generate shape ~stmts:spec.lstmts in
  let config = Fusion.Model.scheduler_config (model_of spec.lmodel) in
  let optimize ?budget () =
    Linalg.Counters.scoped (fun () ->
        let o = Fusion.Resilient.optimize ?budget ~engine ~config prog in
        (o, Linalg.Counters.all_counters ()))
  in
  let o, counters = optimize () in
  let r = o.Fusion.Resilient.result in
  (match
     Pluto.Satisfy.check_complete r.Pluto.Scheduler.prog r.Pluto.Scheduler.sched
   with
  | Ok () -> ()
  | Error d ->
    QCheck.Test.fail_reportf "incomplete schedule: %s" d.Pluto.Diagnostics.code);
  (match
     Pluto.Satisfy.check_legal r.Pluto.Scheduler.prog
       r.Pluto.Scheduler.true_deps r.Pluto.Scheduler.sched
   with
  | Ok () -> ()
  | Error d ->
    QCheck.Test.fail_reportf "illegal schedule: dep %d->%d" d.Deps.Dep.src
      d.Deps.Dep.dst);
  let races =
    Analysis.Race.check r.Pluto.Scheduler.prog r.Pluto.Scheduler.all_deps
      r.Pluto.Scheduler.sched o.Fusion.Resilient.ast
  in
  (match
     List.find_opt
       (fun (f : Analysis.Finding.t) ->
         f.Analysis.Finding.kind = Analysis.Finding.Racy_parallel)
       races
   with
  | Some f ->
    QCheck.Test.fail_reportf "racy parallel mark: %s" f.Analysis.Finding.message
  | None -> ());
  if
    Pluto.Engine.resolve engine ~nstmts:(Array.length prog.Scop.Program.stmts)
    = Pluto.Engine.Lp_dfp
  then begin
    check_linear_cuts ~engine config prog;
    (* unbudgeted, as the scan: a wall-clock budget (WISEFUSE_BUDGET_MS)
       would trip at different points on the two tableaux *)
    let unbudgeted () = optimize ~budget:(Linalg.Budget.make ()) () in
    let native =
      if Option.is_none (Linalg.Budget.of_env ()) then (o, counters) else unbudgeted ()
    in
    check_rational native (Linalg.Chaos.arm ~big_path:true unbudgeted)
  end;
  true

let fuzz_large =
  QCheck.Test.make ~name:"generated large SCoPs: engines crash-free and legal"
    ~count:large_count
    (QCheck.make ~print:print_large gen_large)
    run_large

(* a failed check raises QCheck's failure, which Alcotest reports *)
let test_fixed_chain () =
  ignore (run_large { shape = 1; lstmts = 12; engine = 1; lmodel = 3 });
  if !chain_cases = 0 then
    Alcotest.fail "no lp-dfp case bisected a fallback-cut chain of 2+ cuts"

let () =
  Alcotest.run "fuzz"
    [
      ("pipeline", [ QCheck_alcotest.to_alcotest fuzz_pipeline ]);
      ("reductions", [ QCheck_alcotest.to_alcotest fuzz_reductions ]);
      ( "large",
        [ QCheck_alcotest.to_alcotest fuzz_large;
          Alcotest.test_case "fixed stencil12 lp-dfp" `Quick test_fixed_chain ] );
    ]
