(** Human-readable fusion-decision reports.

    [capture] runs a model's whole pipeline under a fresh {!Obs.Trace}
    recording and keeps the decision events; [pp] renders them as a
    justification chain in the house diagnostics style: the pre-fusion
    clustering (which SCC seeded each cluster and why each joiner was
    pulled in), every cut with the strategy chosen and — for minimal /
    Algorithm 2 cuts — the offending dependence, the per-level ILP
    effort, the degradation-ladder path, verification and the final
    partition table. *)

type t = {
  kernel : string;
  model : Model.t;
  outcome : Model.optimized;
  events : Obs.Trace.event list;
}

(** Run [Model.optimize] on [prog] under a fresh trace recording and a
    fresh Farkas memo ({!Pluto.Farkas.scoped}), so the report is a
    function of the program alone. The run's work still counts in the
    caller's {!Linalg.Counters}. The tracer is left disabled. *)
val capture :
  ?budget:Linalg.Budget.t -> ?engine:Pluto.Engine.choice ->
  ?reductions:bool -> model:Model.t -> kernel:string -> Scop.Program.t -> t

val pp : Format.formatter -> t -> unit
