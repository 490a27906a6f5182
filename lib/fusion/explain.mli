(** Human-readable fusion-decision reports.

    A report pairs a model run with the decision events recorded
    while it ran (under {!Obs.Trace.with_recording}); the run's own
    Farkas memo ({!Resilient.optimize}) makes those events a function
    of the program alone. [pp] renders them as a justification chain in the
    house diagnostics style: the pre-fusion clustering (which SCC
    seeded each cluster and why each joiner was pulled in), every cut
    with the strategy chosen and — for minimal / Algorithm 2 cuts —
    the offending dependence, the per-level ILP effort, the
    degradation-ladder path, verification and the final partition
    table. *)

type t = {
  kernel : string;
  model : Model.t;
  outcome : Model.optimized;
  events : Obs.Trace.event list;
}

val pp : Format.formatter -> t -> unit
