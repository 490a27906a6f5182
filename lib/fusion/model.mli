(** The five fusion models of Table 1 behind one type — the single
    entry point the CLI, benchmarks and tests dispatch on. *)

type t = Icc | Nofuse | Smartfuse | Maxfuse | Wisefuse

(** In Table 1 order (baseline first). *)
val all : t list

val name : t -> string

(** Table 1's description column. *)
val description : t -> string

(** @raise Not_found for unknown names. *)
val of_name : string -> t

(** The scheduler configuration, for the four polyhedral models.
    @raise Invalid_argument for [Icc]. *)
val scheduler_config : t -> Pluto.Scheduler.config

type optimized = {
  ast : Codegen.Ast.node;
  scheduler : Pluto.Scheduler.result option;  (** [None] for [Icc] *)
  icc : Icc.Icc_model.result option;  (** [Some] for [Icc] *)
  resilience : Resilient.outcome option;
      (** which degradation rung produced the schedule ([None] for
          [Icc], which does not go through the ladder) *)
}

(** Run the model's whole pipeline on a program. Polyhedral models run
    through the {!Resilient} degradation ladder, so a solver budget
    ([budget], defaulting to {!Linalg.Budget.of_env}) degrades the
    schedule instead of failing the run. [engine] selects the
    scheduling engine (default {!Pluto.Engine.Auto}; ignored by
    [Icc], which has no solver). [reductions] (default [false])
    enables reduction-aware legality — see {!Resilient.optimize};
    ignored by [Icc]. *)
val optimize :
  ?budget:Linalg.Budget.t ->
  ?engine:Pluto.Engine.choice ->
  ?reductions:bool ->
  t ->
  Scop.Program.t ->
  optimized

(** The program, dependences and schedule behind a result (the
    scheduler's, or icc's for [Icc]): what wisecheck certifies and the
    daemon serializes. *)
val artifacts : optimized -> Scop.Program.t * Deps.Dep.t list * Pluto.Sched.t
