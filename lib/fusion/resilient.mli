(** Graceful degradation: always leave with a legal schedule.

    The optimizing search can fail — budget exhaustion, a fusion
    configuration with no legal hyperplane and no further cut, a
    transform codegen rejects. This module walks a fallback ladder
    until something succeeds:

    + {e Primary} — the requested configuration on the requested
      engine;
    + {e Lp_relaxed} — the same configuration on the lp-dfp engine
      (LP relaxation + clustering; see {!Pluto.Engine}), tried only
      when the primary attempt ran the ILP engine;
    + {e Distributed} — maximal distribution (every SCC its own nest);
    + {e Identity} — the original program order, solver-free and legal
      by construction.

    Each rung gets a fresh copy of the budget ({!Linalg.Budget.refresh}).
    Every outcome, degraded or not, has passed
    {!Pluto.Satisfy.check_complete} and {!Pluto.Satisfy.check_legal}. *)

type rung = Primary | Lp_relaxed | Distributed | Identity

val rung_name : rung -> string

(** All rung names in ladder order — the telemetry label set. *)
val rung_names : string list

type outcome = {
  result : Pluto.Scheduler.result;
  ast : Codegen.Ast.node;
  rung : rung;  (** which ladder rung produced the schedule *)
  notes : Pluto.Diagnostics.t list;
      (** why earlier rungs failed (empty on the happy path) *)
}

(** [degraded o] — did the pipeline fall past the primary rung? *)
val degraded : outcome -> bool

(** [optimize ?param_floor ?budget ?engine ?config ?reductions prog] —
    run the ladder. [config] defaults to the wisefuse model; [engine]
    to {!Pluto.Engine.Auto}; [budget] defaults to
    {!Linalg.Budget.of_env} (so [WISEFUSE_BUDGET_MS] and friends apply
    to every pipeline entry point), and [None] there means unlimited.
    With [reductions] (default [false]) the dependence set is run
    through {!Analysis.Reduction.detect} and the covered
    self-dependences retagged [Deps.Dep.Reduction] before scheduling,
    relaxing legality for proven accumulation chains; when [false] no
    dependence is ever tagged and schedules are byte-identical to the
    untagged pipeline. The run memoizes its Farkas systems in a
    {!Pluto.Farkas.memo} of its own, shared by every rung and dropped
    on return. On the happy path this is byte-identical to
    [Pluto.Scheduler.run config prog] followed by
    [Codegen.Scan.of_result].
    @raise Pluto.Diagnostics.Error only if even the identity rung fails
    verification, which indicates an internally inconsistent dependence
    analysis. *)
val optimize :
  ?param_floor:int ->
  ?budget:Linalg.Budget.t ->
  ?engine:Pluto.Engine.choice ->
  ?config:Pluto.Scheduler.config ->
  ?reductions:bool ->
  Scop.Program.t ->
  outcome
