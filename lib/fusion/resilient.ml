(* Graceful degradation for the scheduling pipeline.

   The optimizing schedule search can fail: the solver budget may run
   out, a fusion configuration may paint itself into a corner (no
   hyperplane and no further cut), or code generation may reject the
   transform. None of those should take the pipeline down — a legal
   schedule always exists (the original program order is one). This
   module walks a fallback ladder:

     1. Primary      — the requested configuration (wisefuse by default)
                       on the requested engine;
     2. Lp_relaxed   — the same configuration on the lp-dfp engine (LP
                       relaxation + clustering, no branch-and-bound) —
                       tried only when the primary attempt ran the ILP
                       engine, since a cheaper solver can survive a
                       budget the exact one tripped;
     3. Distributed  — maximal distribution: every SCC in its own nest,
                       the cheapest search the full scheduler can run;
     4. Identity     — the original program order, built directly (no
                       solver at all) and always legal by construction.

   Each rung gets a fresh copy of the budget ([Budget.refresh]) rather
   than inheriting an already-tripped one. Every outcome — including a
   degraded one — has passed the scheduler's always-on verification
   ([Satisfy.check_complete] + [Satisfy.check_legal]); the identity
   rung is verified here explicitly. The diagnostics of the rungs that
   failed ride along in [notes] so reports can say *why* the pipeline
   degraded. *)

open Deps

type rung = Primary | Lp_relaxed | Distributed | Identity

let rung_name = function
  | Primary -> "primary"
  | Lp_relaxed -> "lp-relaxed"
  | Distributed -> "distributed"
  | Identity -> "identity"

(* ladder order; telemetry pre-creates one labeled series per rung so
   scrape output is stable from the first request *)
let rung_names =
  List.map rung_name [ Primary; Lp_relaxed; Distributed; Identity ]

type outcome = {
  result : Pluto.Scheduler.result;
  ast : Codegen.Ast.node;
  rung : rung;
  notes : Pluto.Diagnostics.t list; (* failures of earlier rungs, in order *)
}

let degraded o = o.rung <> Primary

(* Maximal distribution under the same engine: one partition per SCC up
   front, so the per-level ILPs decompose into single-SCC problems. *)
let distributed_config (cfg : Pluto.Scheduler.config) =
  {
    Pluto.Scheduler.name = cfg.name ^ "+distribute";
    order_sccs = Pluto.Scheduler.topological_order;
    initial_cut = Some Pluto.Scheduler.Cut_all_sccs;
    fallback_cut = Pluto.Scheduler.Cut_all_sccs;
    outer_parallel = false;
  }

(* A Scheduler.result for the identity (original program order)
   schedule, assembled without any solving. *)
let identity_result (prog : Scop.Program.t) all_deps =
  let ddg = Ddg.build prog all_deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  let scc_order = List.init (Ddg.scc_count scc_of) Fun.id in
  let sched = Codegen.Scan.identity_schedule prog in
  {
    Pluto.Scheduler.prog;
    config_name = "identity";
    engine = Pluto.Engine.Ilp (* no solver ran; the kind is vacuous *);
    all_deps;
    true_deps = List.filter Dep.is_true all_deps;
    ddg;
    scc_of;
    scc_order;
    sched;
    outer_partition = Pluto.Sched.outer_partition sched;
  }

let verify_identity (res : Pluto.Scheduler.result) =
  (match Pluto.Satisfy.check_complete res.prog res.sched with
  | Ok () -> ()
  | Error d -> raise (Pluto.Diagnostics.Error d));
  match Pluto.Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error (d : Dep.t) ->
    (* The identity schedule is the original execution order; the
       dependences were derived from that very order, so this can only
       fire on an internally inconsistent dependence analysis. *)
    Pluto.Diagnostics.fail ~phase:Verification ~code:"verify.identity-illegal"
      ~context:
        [
          ("src", Printf.sprintf "S%d" d.src);
          ("dst", Printf.sprintf "S%d" d.dst);
        ]
      (Printf.sprintf
         "identity schedule violates dependence S%d->S%d (dependence \
          analysis is inconsistent)"
         d.src d.dst)

(* Ladder transitions as trace events: one [resilience.attempt] per
   rung tried, one [resilience.degrade] per failure (carrying the
   diagnostic that forced the step down), one [resilience.settled] for
   the rung that produced the result. *)
let rung_event name rung args =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"resilience" name
      ~args:(("rung", Obs.Json.Str (rung_name rung)) :: args)

let degrade_event rung (d : Pluto.Diagnostics.t) =
  rung_event "resilience.degrade" rung
    [
      ("code", Obs.Json.Str d.code);
      ("phase", Obs.Json.Str (Pluto.Diagnostics.phase_name d.phase));
      ("message", Obs.Json.Str d.message);
    ]

(* [optimize] with dependences already computed (input dependences
   included if downstream wants them). No [Budget.of_env] default here:
   the caller decides. The ladder owns one Farkas memo, shared by every
   rung, so the memo events in a trace and the memo counters are a
   function of this run alone. *)
let with_deps ?budget ?(engine = Pluto.Engine.Auto) ~config
    (prog : Scop.Program.t) all_deps =
  let memo = Pluto.Farkas.memo () in
  (* One attempt = schedule search + code generation; a failure
     anywhere in the pair degrades to the next rung. *)
  let attempt rung cfg eng b =
    rung_event "resilience.attempt" rung
      [
        ("config", Obs.Json.Str cfg.Pluto.Scheduler.name);
        ("engine", Obs.Json.Str (Pluto.Engine.choice_name eng));
      ];
    match
      Pluto.Scheduler.schedule_with_deps ?budget:b ~engine:eng ~memo cfg prog
        all_deps
    with
    | Error d -> Error d
    | Ok result -> (
      match
        Pluto.Diagnostics.protect (fun () -> Codegen.Scan.of_result result)
      with
      | Ok ast -> Ok (result, ast)
      | Error d -> Error d)
  in
  let settled rung notes (result, ast) =
    rung_event "resilience.settled" rung
      [ ("degraded", Obs.Json.Bool (rung <> Primary)) ];
    { result; ast; rung; notes }
  in
  (* every rung gets a fresh copy of the budget, never an already
     tripped one *)
  let refresh () = Option.map Linalg.Budget.refresh budget in
  let identity notes =
    (* Last rung: no solver involved, so no budget applies. Verified
       like every other schedule; a failure here raises — there is
       nothing further to degrade to. *)
    rung_event "resilience.attempt" Identity
      [ ("config", Obs.Json.Str "identity") ];
    let result = identity_result prog all_deps in
    verify_identity result;
    let ast = Codegen.Scan.of_result result in
    settled Identity notes (result, ast)
  in
  let distributed notes =
    match attempt Distributed (distributed_config config) engine (refresh ()) with
    | Ok ok -> settled Distributed notes ok
    | Error d ->
      degrade_event Distributed d;
      identity (notes @ [ d ])
  in
  match attempt Primary config engine budget with
  | Ok ok -> settled Primary [] ok
  | Error d1 ->
    degrade_event Primary d1;
    (* Engine step-down: retry the same configuration on the lp-dfp
       engine before giving up on it — but only when the primary
       attempt actually ran the ILP engine (a fixed or auto-selected
       lp-dfp primary has nothing cheaper to step down to). *)
    let primary_engine =
      Pluto.Engine.resolve engine ~nstmts:(Array.length prog.stmts)
    in
    if primary_engine = Pluto.Engine.Ilp then begin
      match
        attempt Lp_relaxed config
          (Pluto.Engine.Fixed Pluto.Engine.Lp_dfp)
          (refresh ())
      with
      | Ok ok -> settled Lp_relaxed [ d1 ] ok
      | Error d2 ->
        degrade_event Lp_relaxed d2;
        distributed [ d1; d2 ]
    end
    else distributed [ d1 ]

let optimize ?param_floor ?budget ?engine ?(config = Wisefuse.config)
    ?(reductions = false) prog =
  let budget =
    match budget with Some _ -> budget | None -> Linalg.Budget.of_env ()
  in
  let all_deps =
    Linalg.Counters.time "dep-analysis" (fun () ->
        Dep.analyze ?param_floor prog)
  in
  (* reduction-aware scheduling: prove reduction shapes, retag their
     covered self-dependences, and let the scheduler treat those edges
     as pre-satisfied. Off by default — with the flag off no dependence
     is ever tagged, so schedules are byte-identical to the untagged
     pipeline. *)
  let all_deps =
    if not reductions then all_deps
    else begin
      let facts, _ = Analysis.Reduction.detect prog all_deps in
      Analysis.Reduction.tag_deps facts all_deps
    end
  in
  with_deps ?budget ?engine ~config prog all_deps
