(* Robustness tests: solver budgets, the graceful-degradation ladder,
   typed diagnostics, always-on schedule verification, the chaos hooks,
   and the bench bound comparators. *)

open Linalg
open Poly
open Ilp

let vec = Vec.of_int_list

(* --- fixtures ------------------------------------------------------------ *)

let swim () = Kernels.Swim.program ~n:12 ()
let advect () = Kernels.Advect.program ~n:12 ()
let gemsfdtd () = Kernels.Gemsfdtd.program ~n:6 ()

(* a 1-d producer/consumer pair with exactly one true (flow)
   dependence, S0 -> S1 on A[i] *)
let producer_consumer () =
  let open Scop.Build in
  let ctx = create ~name:"pc" ~params:[ ("N", 16) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n ] in
  let b = array ctx "B" [ n ] in
  loop ctx "i" ~lb:(ci 0) ~ub:(n -~ ci 1) (fun i ->
      assign ctx "S0" a [ i ] (f 1.0));
  loop ctx "i" ~lb:(ci 0) ~ub:(n -~ ci 1) (fun i ->
      assign ctx "S1" b [ i ] (a.%([ i ]) +: f 1.0));
  finish ctx

(* a depth-2 stencil, for rank/singularity corruption *)
let stencil2d () =
  let open Scop.Build in
  let ctx = create ~name:"st2" ~params:[ ("N", 12) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n ] in
  let b = array ctx "B" [ n; n ] in
  loop ctx "i" ~lb:(ci 1) ~ub:(n -~ ci 2) (fun i ->
      loop ctx "j" ~lb:(ci 1) ~ub:(n -~ ci 2) (fun j ->
          assign ctx "S0" b [ i; j ]
            (a.%([ i -~ ci 1; j ]) +: a.%([ i; j -~ ci 1 ]))));
  finish ctx

let schedule_of prog =
  Pluto.Scheduler.run Fusion.Wisefuse.config prog

let unlimited () = Budget.make ()

(* --- budgets ------------------------------------------------------------- *)

let test_budget_latch () =
  let b = Budget.make ~pivots:2 () in
  Alcotest.(check bool) "1st pivot" true (Budget.spend_pivot b);
  Alcotest.(check bool) "2nd pivot" true (Budget.spend_pivot b);
  Alcotest.(check bool) "3rd pivot trips" false (Budget.spend_pivot b);
  Alcotest.(check bool) "tripped" true (Budget.exhausted b);
  (* latched across dimensions: nodes are unlimited but the budget is
     already dead *)
  Alcotest.(check bool) "node after trip" false (Budget.spend_node b);
  let b' = Budget.refresh b in
  Alcotest.(check bool) "refresh clears" false (Budget.exhausted b');
  Alcotest.(check bool) "refresh spends again" true (Budget.spend_pivot b')

let test_budget_trip () =
  let b = Budget.make ~nodes:0 () in
  Alcotest.(check bool) "fresh" false (Budget.exhausted b);
  Alcotest.(check bool) "first node trips" false (Budget.spend_node b);
  Alcotest.(check bool) "tripped" true (Budget.exhausted b);
  Alcotest.(check bool) "spend after trip" false (Budget.spend_pivot b)

(* whatever the environment says, every pipeline entry point must come
   back with a verified schedule (this is what the tiny-budget CI job
   leans on: it reruns this binary under WISEFUSE_BUDGET_MS=1) *)
let test_model_optimize_env_budget_legal () =
  let prog = swim () in
  let opt = Fusion.Model.optimize Fusion.Model.Wisefuse prog in
  match opt.Fusion.Model.resilience with
  | None -> Alcotest.fail "polyhedral model must report resilience"
  | Some o ->
    let r = o.Fusion.Resilient.result in
    (match
       Pluto.Satisfy.check_legal r.Pluto.Scheduler.prog
         r.Pluto.Scheduler.true_deps r.Pluto.Scheduler.sched
     with
    | Ok () -> ()
    | Error d ->
      Alcotest.failf "illegal schedule under env budget (dep %d->%d)"
        d.Deps.Dep.src d.Deps.Dep.dst)

(* note: mutates WISEFUSE_BUDGET_MS; runs after the env-integration
   test above and every other test passes its budget explicitly, so the
   order in the suite list matters only for that one *)
let test_budget_of_env () =
  let set v = Unix.putenv "WISEFUSE_BUDGET_MS" v in
  set "";
  Alcotest.(check bool) "unset -> None" true (Budget.of_env () = None);
  set "100000";
  (match Budget.of_env () with
  | Some _ -> ()
  | None -> Alcotest.fail "ms=100000 must produce a budget");
  set "abc";
  Alcotest.(check bool) "malformed ignored" true (Budget.of_env () = None);
  set "-5";
  Alcotest.(check bool) "non-positive ignored" true (Budget.of_env () = None);
  set ""

(* --- budget threading through the solvers -------------------------------- *)

let test_lp_budget_exhausted () =
  let p =
    Polyhedron.make 2 [ Constr.ge [ 1; 0; -1 ]; Constr.ge [ 0; 1; -2 ] ]
  in
  let b = Budget.make ~pivots:0 () in
  Alcotest.(check bool) "0-pivot budget" true
    (Lp.minimize ~budget:b p (vec [ 1; 1; 0 ]) = Lp.Exhausted);
  (* and without a budget the same problem still solves *)
  match Lp.minimize p (vec [ 1; 1; 0 ]) with
  | Lp.Optimal _ -> ()
  | _ -> Alcotest.fail "unbudgeted solve must stay optimal"

(* --- graceful degradation ------------------------------------------------- *)

(* acceptance bar from the issue: with a 1-pivot budget every registry
   kernel still yields a schedule that passes check_legal *)
let test_one_pivot_all_kernels_legal () =
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      let prog = e.Kernels.Registry.program () in
      let budget = Budget.make ~pivots:1 () in
      let o = Fusion.Resilient.optimize ~budget prog in
      let r = o.Fusion.Resilient.result in
      (match Pluto.Satisfy.check_complete r.Pluto.Scheduler.prog r.Pluto.Scheduler.sched with
      | Ok () -> ()
      | Error d ->
        Alcotest.failf "%s: incomplete degraded schedule (%s)"
          e.Kernels.Registry.name d.Pluto.Diagnostics.code);
      match
        Pluto.Satisfy.check_legal r.Pluto.Scheduler.prog
          r.Pluto.Scheduler.true_deps r.Pluto.Scheduler.sched
      with
      | Ok () -> ()
      | Error d ->
        Alcotest.failf "%s: illegal degraded schedule (dep %d->%d)"
          e.Kernels.Registry.name d.Deps.Dep.src d.Deps.Dep.dst)
    Kernels.Registry.all

let test_one_pivot_degrades_with_notes () =
  let prog = swim () in
  let o = Fusion.Resilient.optimize ~budget:(Budget.make ~pivots:1 ()) prog in
  Alcotest.(check bool) "degraded" true (Fusion.Resilient.degraded o);
  Alcotest.(check bool) "notes recorded" true
    (o.Fusion.Resilient.notes <> [])

(* the happy path must be byte-identical to the raw scheduler: the
   ladder may not perturb PR 2 results *)
let test_happy_path_identical () =
  List.iter
    (fun prog ->
      let base = schedule_of prog in
      let o = Fusion.Resilient.optimize ~budget:(unlimited ()) prog in
      Alcotest.(check bool) "primary rung" true
        (o.Fusion.Resilient.rung = Fusion.Resilient.Primary);
      Alcotest.(check bool) "identical schedule" true
        (o.Fusion.Resilient.result.Pluto.Scheduler.sched
        = base.Pluto.Scheduler.sched);
      Alcotest.(check bool) "identical partitions" true
        (o.Fusion.Resilient.result.Pluto.Scheduler.outer_partition
        = base.Pluto.Scheduler.outer_partition))
    [ swim (); advect (); gemsfdtd () ]

let test_schedule_result_matches_run () =
  let prog = advect () in
  let base = schedule_of prog in
  match
    Pluto.Scheduler.schedule_with_deps ~memo:(Pluto.Farkas.memo ())
      Fusion.Wisefuse.config prog (Deps.Dep.analyze prog)
  with
  | Ok r ->
    Alcotest.(check bool) "schedule = run" true
      (r.Pluto.Scheduler.sched = base.Pluto.Scheduler.sched)
  | Error d -> Alcotest.failf "unexpected diagnostic %s" d.Pluto.Diagnostics.code

(* --- typed diagnostics ---------------------------------------------------- *)

let test_exit_codes () =
  let open Pluto.Diagnostics in
  let code phase = exit_code (make ~phase ~code:"t" "t") in
  Alcotest.(check int) "usage" 2 (code Usage);
  Alcotest.(check int) "budget" 3 (code Budget);
  Alcotest.(check int) "scheduling" 4 (code Scheduling);
  Alcotest.(check int) "verification" 5 (code Verification);
  Alcotest.(check int) "codegen" 6 (code Codegen)

let test_protect () =
  let open Pluto.Diagnostics in
  (match protect (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "pass-through" 42 v
  | Error _ -> Alcotest.fail "no error expected");
  match protect (fun () -> fail ~phase:Scheduling ~code:"t.boom" "boom") with
  | Ok _ -> Alcotest.fail "must surface the diagnostic"
  | Error d -> Alcotest.(check string) "code" "t.boom" d.code

(* the satellite regression: a cyclic condensation (an scc_of map
   inconsistent with the DDG) must produce a typed diagnostic naming
   the stuck SCCs, not a bare failwith *)
let test_prefusion_cyclic_condensation () =
  let prog = producer_consumer () in
  let ddg =
    { Deps.Ddg.n = 2; succ = [| [ 1 ]; [ 0 ] |]; pred = [| [ 1 ]; [ 0 ] |];
      deps = [] }
  in
  let scc_of = [| 0; 1 |] in
  match Fusion.Prefusion.order prog ddg scc_of with
  | _ -> Alcotest.fail "cyclic condensation must not produce an order"
  | exception Pluto.Diagnostics.Error d ->
    Alcotest.(check string) "code" "prefuse.no-ready-scc"
      d.Pluto.Diagnostics.code;
    Alcotest.(check bool) "phase" true
      (d.Pluto.Diagnostics.phase = Pluto.Diagnostics.Scheduling);
    (match List.assoc_opt "stuck-sccs" d.Pluto.Diagnostics.context with
    | Some stuck -> Alcotest.(check string) "stuck sccs" "0,1" stuck
    | None -> Alcotest.fail "diagnostic must carry the stuck SCC ids")

(* --- always-on verification on corrupted schedules ------------------------ *)

let test_corrupt_negated_row () =
  let prog = producer_consumer () in
  let res = schedule_of prog in
  let corrupt = Array.copy res.Pluto.Scheduler.sched in
  corrupt.(1) <-
    List.map
      (function
        | Pluto.Sched.Hyp h -> Pluto.Sched.Hyp (Array.map (fun c -> -c) h)
        | r -> r)
      corrupt.(1);
  match
    Pluto.Satisfy.check_legal prog res.Pluto.Scheduler.true_deps corrupt
  with
  | Ok () -> Alcotest.fail "negated row must be caught"
  | Error d ->
    (* exactly the S0 -> S1 flow dependence must be reported *)
    Alcotest.(check (pair int int)) "offending dependence" (0, 1)
      (d.Deps.Dep.src, d.Deps.Dep.dst)

let test_corrupt_dropped_level () =
  let prog = producer_consumer () in
  let res = schedule_of prog in
  (* drop the last schedule row of every statement: the level that
     separated S1 from S0 disappears, so the flow dependence is never
     satisfied *)
  let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
  let corrupt = Array.map drop_last res.Pluto.Scheduler.sched in
  match
    Pluto.Satisfy.check_legal prog res.Pluto.Scheduler.true_deps corrupt
  with
  | Ok () -> Alcotest.fail "dropped satisfaction level must be caught"
  | Error d ->
    Alcotest.(check (pair int int)) "offending dependence" (0, 1)
      (d.Deps.Dep.src, d.Deps.Dep.dst)

let test_corrupt_rank_deficient () =
  let prog = stencil2d () in
  let res = schedule_of prog in
  (* duplicate the first iterator row into every hyperplane row: the
     statement's transform collapses to rank 1 *)
  let first_hyp =
    List.find_map
      (function Pluto.Sched.Hyp h -> Some h | _ -> None)
      res.Pluto.Scheduler.sched.(0)
  in
  let h0 = Option.get first_hyp in
  let corrupt = Array.copy res.Pluto.Scheduler.sched in
  corrupt.(0) <-
    List.map
      (function
        | Pluto.Sched.Hyp _ -> Pluto.Sched.Hyp (Array.copy h0)
        | r -> r)
      corrupt.(0);
  match Pluto.Satisfy.check_complete prog corrupt with
  | Ok () -> Alcotest.fail "rank-deficient statement must be caught"
  | Error d ->
    Alcotest.(check string) "code" "verify.singular" d.Pluto.Diagnostics.code;
    (match List.assoc_opt "statement" d.Pluto.Diagnostics.context with
    | Some s -> Alcotest.(check string) "statement named" "S0" s
    | None -> Alcotest.fail "diagnostic must name the statement")

let test_corrupt_zero_row () =
  let prog = producer_consumer () in
  let res = schedule_of prog in
  let corrupt = Array.copy res.Pluto.Scheduler.sched in
  corrupt.(0) <-
    List.map
      (function
        | Pluto.Sched.Hyp h -> Pluto.Sched.Hyp (Array.map (fun _ -> 0) h)
        | r -> r)
      corrupt.(0);
  match Pluto.Satisfy.check_complete prog corrupt with
  | Ok () -> Alcotest.fail "zeroed iterator rows must be caught"
  | Error d ->
    Alcotest.(check string) "code" "verify.rank" d.Pluto.Diagnostics.code

(* --- chaos hooks ---------------------------------------------------------- *)

let test_chaos_exhaust_lp () =
  Chaos.arm ~exhaust:true (fun () ->
      let p = Polyhedron.make 1 [ Constr.ge [ 1; -1 ] ] in
      Alcotest.(check bool) "forced exhaustion" true
        (Lp.minimize p (vec [ 1; 0 ]) = Lp.Exhausted))

let test_chaos_exhaust_scheduler_typed () =
  Chaos.arm ~exhaust:true (fun () ->
      let prog = producer_consumer () in
      match
        Pluto.Scheduler.schedule_with_deps ~memo:(Pluto.Farkas.memo ())
          Fusion.Wisefuse.config prog (Deps.Dep.analyze prog)
      with
      | Ok _ -> Alcotest.fail "all-exhausted solves cannot schedule"
      | Error d ->
        Alcotest.(check bool) "phase is scheduling" true
          (d.Pluto.Diagnostics.phase = Pluto.Diagnostics.Scheduling))

let test_chaos_warm_fallback_equiv () =
  let prog = swim () in
  let base = (schedule_of prog).Pluto.Scheduler.sched in
  Chaos.arm ~cold_reoptimize:true (fun () ->
      let got = (schedule_of prog).Pluto.Scheduler.sched in
      Alcotest.(check bool) "cold-only resolve, same schedule" true
        (got = base))

(* The forced Big path also sends every LP to the rational simplex
   tableau: the same schedule at the same solver counts, all but the
   bignum boundary crossings it moves by design. *)
let test_chaos_forced_big_equiv () =
  let prog = advect () in
  let counted_schedule () =
    Counters.scoped (fun () ->
        let sched = (schedule_of prog).Pluto.Scheduler.sched in
        ( sched,
          List.filter
            (fun (name, _) -> name <> "big_promotions" && name <> "big_demotions")
            (Counters.all_counters ()) ))
  in
  let base, base_counts = counted_schedule () in
  Chaos.arm ~big_path:true (fun () ->
      (* arithmetic stays canonical on the forced Big path *)
      let i x = Bigint.of_int x in
      Alcotest.(check int) "add" 7 (Bigint.to_int (Bigint.add (i 3) (i 4)));
      Alcotest.(check int) "mul" (-12) (Bigint.to_int (Bigint.mul (i 3) (i (-4))));
      Alcotest.(check int) "gcd" 6 (Bigint.to_int (Bigint.gcd (i 12) (i 18)));
      Alcotest.(check int) "div" 3 (Bigint.to_int (Bigint.div (i 17) (i 5)));
      (* a non-zero remainder rounds the ceiling up *)
      Alcotest.(check int) "cdiv" 4 (Bigint.to_int (Bigint.cdiv (i 17) (i 5)));
      (* and the whole pipeline is unchanged *)
      let got, counts = counted_schedule () in
      Alcotest.(check bool) "forced Big promotion, same schedule" true
        (got = base);
      Alcotest.(check (list (pair string int)))
        "forced Big promotion, same counters" base_counts counts)

(* stencil40's lp-dfp levels dead-end on infeasible LP relaxations, and
   the scheduler bisects each fallback-cut chain with feasibility probes
   that bill the budget like any other LP. Against the one-cut scan
   ([Chaos.hooks.linear_cuts]) under the same pivot budget, the ladder
   may settle on an earlier rung, since bisection spends fewer pivots,
   but never on a later one, and on the same rung it leaves the same
   notes. With every LP forced to exhaustion, the search fails with the
   scan's diagnostic (the ladder cannot be compared there: its identity
   rung's verification solves LPs too, and fails on both sides). *)
let test_chaos_dead_end_budgets () =
  let prog = Kernels.Scopgen.generate Kernels.Scopgen.Stencil ~stmts:40 in
  let settle ~pivots ~linear_cuts () =
    let o =
      Chaos.arm ~linear_cuts (fun () ->
          Fusion.Resilient.optimize ~budget:(Budget.make ~pivots ()) prog)
    in
    ( o.rung,
      List.map
        (fun (d : Pluto.Diagnostics.t) -> (Pluto.Diagnostics.phase_name d.phase, d.code))
        o.notes )
  in
  let notes = Alcotest.(list (pair string string)) in
  List.iter
    (fun pivots ->
      let bisected, got = settle ~pivots ~linear_cuts:false () in
      let scanned, want = settle ~pivots ~linear_cuts:true () in
      (* [Resilient.rung]'s constructors are declared in ladder order *)
      Alcotest.(check bool)
        (Printf.sprintf "%d pivots: no later rung than the scan" pivots)
        true (bisected <= scanned);
      if bisected = scanned then
        Alcotest.check notes (Printf.sprintf "%d pivots: the scan's notes" pivots)
          want got)
    [ 1; 1000; 2500; 5000 ];
  let deps = Deps.Dep.analyze prog in
  let exhausted ~linear_cuts =
    Chaos.arm ~exhaust:true ~linear_cuts (fun () ->
        match
          Pluto.Scheduler.schedule_with_deps ~memo:(Pluto.Farkas.memo ())
            Fusion.Wisefuse.config prog deps
        with
        | Ok _ -> Alcotest.fail "all-exhausted solves cannot schedule"
        | Error d -> [ (Pluto.Diagnostics.phase_name d.phase, d.code) ])
  in
  Alcotest.check notes "forced exhaustion: the scan's diagnostic"
    (exhausted ~linear_cuts:true)
    (exhausted ~linear_cuts:false)

(* Arming is scoped: after the callback returns, raises, or arms a
   second set inside the first, every hook reads as it did before. *)
let test_chaos_arming_scoped () =
  let check name flags plan =
    let h = Chaos.hooks in
    Alcotest.(check (list bool)) name flags
      [ h.big_path; h.bland; h.exhaust; h.cold_reoptimize; h.check_warm;
        h.linear_cuts ];
    Alcotest.(check bool) (name ^ ": fault plan") true (Option.equal ( == ) h.faults plan)
  in
  let all_off = [ false; false; false; false; false; false ] in
  check "nothing armed" all_off None;
  let outer = Chaos.queue [ Chaos.Slow 0 ] in
  Chaos.arm ~big_path:true ~exhaust:true ~faults:outer (fun () ->
      let armed = [ true; false; true; false; false; false ] in
      check "outer set" armed (Some outer);
      let inner = Chaos.queue [] in
      Chaos.arm ~bland:true ~exhaust:false ~cold_reoptimize:true ~check_warm:true
        ~linear_cuts:true ~faults:inner (fun () ->
          check "inner set over the outer" [ true; true; false; true; true; true ]
            (Some inner));
      check "after a nested set returns" armed (Some outer);
      (try Chaos.arm ~big_path:false ~bland:true (fun () -> failwith "escape")
       with Failure _ -> ());
      check "after a nested set raises" armed (Some outer);
      Alcotest.(check int) "the outer plan hands out its fault" 1
        (Chaos.with_fault None (fun _ -> Chaos.slows outer)));
  check "after the outer set returns" all_off None;
  (match Chaos.arm ~check_warm:true (fun () -> raise Exit) with
  | () -> Alcotest.fail "the callback's exception must escape"
  | exception Exit -> ());
  check "after an outer set raises" all_off None

(* --- bench bound comparators ---------------------------------------------- *)

(* one-sided bounds used by the soak gate and wisebench --compare *)
let test_bench_bounds () =
  let open Bench_check in
  (match check_min ~floor:0.5 ~value:0.7 with
  | Met v -> Alcotest.(check (float 1e-9)) "min met carries value" 0.7 v
  | _ -> Alcotest.fail "0.7 meets a 0.5 floor");
  (match check_min ~floor:0.5 ~value:0.3 with
  | Violation v -> Alcotest.(check (float 1e-9)) "min violation value" 0.3 v
  | _ -> Alcotest.fail "0.3 violates a 0.5 floor");
  Alcotest.(check bool) "floor is inclusive" true
    (check_min ~floor:0.5 ~value:0.5 = Met 0.5);
  (match check_max ~ceiling:10.0 ~value:8.0 with
  | Met v -> Alcotest.(check (float 1e-9)) "max met carries value" 8.0 v
  | _ -> Alcotest.fail "8 meets a 10 ceiling");
  (match check_max ~ceiling:10.0 ~value:11.0 with
  | Violation v -> Alcotest.(check (float 1e-9)) "max violation value" 11.0 v
  | _ -> Alcotest.fail "11 violates a 10 ceiling");
  Alcotest.(check bool) "ceiling is inclusive" true
    (check_max ~ceiling:10.0 ~value:10.0 = Met 10.0);
  (* the zero-ceiling form gates the soak's crashes = 0 *)
  Alcotest.(check bool) "zero ceiling, zero value" true
    (check_max ~ceiling:0.0 ~value:0.0 = Met 0.0);
  Alcotest.(check bool) "zero ceiling, one violates" true
    (check_max ~ceiling:0.0 ~value:1.0 = Violation 1.0);
  (* non-finite inputs never produce a verdict, in either direction *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "nan/inf value guarded" true
        (check_min ~floor:1.0 ~value:v = Bad_value
        && check_max ~ceiling:1.0 ~value:v = Bad_value);
      Alcotest.(check bool) "nan/inf bound guarded" true
        (check_min ~floor:v ~value:1.0 = Bad_value
        && check_max ~ceiling:v ~value:1.0 = Bad_value))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "only violations fail" true
    (bound_failure (Violation 2.0)
    && (not (bound_failure (Met 2.0)))
    && not (bound_failure Bad_value))

(* -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "latch" `Quick test_budget_latch;
          Alcotest.test_case "trip" `Quick test_budget_trip;
          Alcotest.test_case "env budget stays legal" `Quick
            test_model_optimize_env_budget_legal;
          Alcotest.test_case "of_env parsing" `Quick test_budget_of_env;
          Alcotest.test_case "lp threading" `Quick test_lp_budget_exhausted;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "1-pivot budget: all kernels legal" `Slow
            test_one_pivot_all_kernels_legal;
          Alcotest.test_case "1-pivot budget: degrades with notes" `Quick
            test_one_pivot_degrades_with_notes;
          Alcotest.test_case "happy path byte-identical" `Quick
            test_happy_path_identical;
          Alcotest.test_case "schedule matches run" `Quick
            test_schedule_result_matches_run;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "protect" `Quick test_protect;
          Alcotest.test_case "cyclic condensation" `Quick
            test_prefusion_cyclic_condensation;
        ] );
      ( "verification",
        [
          Alcotest.test_case "negated row" `Quick test_corrupt_negated_row;
          Alcotest.test_case "dropped satisfaction level" `Quick
            test_corrupt_dropped_level;
          Alcotest.test_case "rank-deficient statement" `Quick
            test_corrupt_rank_deficient;
          Alcotest.test_case "zeroed iterator rows" `Quick
            test_corrupt_zero_row;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "forced LP exhaustion" `Quick
            test_chaos_exhaust_lp;
          Alcotest.test_case "exhaustion is typed at the scheduler" `Quick
            test_chaos_exhaust_scheduler_typed;
          Alcotest.test_case "warm-start fallback equivalence" `Quick
            test_chaos_warm_fallback_equiv;
          Alcotest.test_case "forced Big promotion equivalence" `Quick
            test_chaos_forced_big_equiv;
          Alcotest.test_case "dead ends under budgets" `Quick
            test_chaos_dead_end_budgets;
          Alcotest.test_case "arming is scoped" `Quick test_chaos_arming_scoped;
        ] );
      ( "bench",
        [
          Alcotest.test_case "bound comparators" `Quick test_bench_bounds;
        ] );
    ]
