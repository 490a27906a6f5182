(** The Pluto-style affine scheduler with pluggable fusion strategies.

    The algorithm follows Bondhugula et al. (CC'08) as described in
    Section 2.2 of the paper:

    + compute SCCs of the DDG;
    + fix a pre-fusion schedule (an order on the SCCs) — this is the
      knob the paper's wisefuse turns;
    + find statement-wise hyperplanes one level at a time with an ILP
      (Farkas legality + communication bounding, lexicographic
      objective (u, w, Σc)), issuing scalar "cuts" between SCCs when no
      hyperplane exists.

    The fusion models of Table 1 are configurations of this engine:
    [nofuse] cuts all SCCs apart up front, [maxfuse] never cuts until
    forced, [smartfuse] (the PLuTo default) cuts between SCCs of
    different dimensionality, and wisefuse (see the [fusion] library)
    additionally reorders the SCCs (Algorithm 1) and restores outer
    parallelism by minimal cuts (Algorithm 2). *)

type cut_strategy =
  | Cut_all_sccs  (** one partition per SCC *)
  | Cut_between_dims
      (** split where adjacent SCCs (in pre-fusion order) have
          different dimensionality *)
  | Cut_minimal
      (** split only between the two SCCs carrying an unsatisfied
          dependence *)
  | Cut_groups of int list
      (** explicit partitioning: one group id per SCC {e position} in
          the pre-fusion order (used by {!Fusion.Search} to evaluate
          enumerated fusion partitionings); ids must be non-decreasing
          along the order *)

type config = {
  name : string;
  order_sccs : Scop.Program.t -> Deps.Ddg.t -> int array -> int list;
      (** pre-fusion schedule: permutation of SCC ids; must respect
          precedence (every true dependence goes forward) *)
  initial_cut : cut_strategy option;
  fallback_cut : cut_strategy;
  outer_parallel : bool;  (** the paper's Algorithm 2 *)
}

type result = {
  prog : Scop.Program.t;
  config_name : string;
  engine : Engine.kind;
      (** the per-level solver that actually ran (after [Auto]
          resolution) *)
  all_deps : Deps.Dep.t list;  (** including input dependences *)
  true_deps : Deps.Dep.t list;
  ddg : Deps.Ddg.t;
  scc_of : int array;  (** statement id -> SCC id *)
  scc_order : int list;  (** the pre-fusion schedule used *)
  sched : Sched.t;
  outer_partition : int array;
      (** statement id -> outermost fusion partition (statements with
          equal values share the outermost loop nest) *)
}

(** Default orderings / strategies. *)

(** PLuTo's pre-fusion schedule (Section 2.3): plain topological order
    of the condensation, realized as the identity permutation because
    SCC ids are already topologically numbered by Kosaraju's DFS. This
    is what the stock configurations use. *)
val topological_order : Scop.Program.t -> Deps.Ddg.t -> int array -> int list

val nofuse : config
val maxfuse : config
val smartfuse : config

(** Run the scheduler. Dependences are computed internally (with input
    dependences, so downstream reuse analyses can use them). Every
    returned result has passed {!Satisfy.check_complete} and
    {!Satisfy.check_legal} (always-on exit verification). With
    [budget], the hyperplane search (per-level ILP and δ-range LPs) is
    capped; dependence analysis and verification stay unbudgeted. With
    [engine], the per-level solver is selected explicitly (default
    [Engine.Auto]: ILP below {!Engine.auto_threshold} statements,
    lp-dfp at or above — see {!Engine}). The run memoizes its Farkas
    spaces in a fresh {!Farkas.memo} of its own.
    @raise Diagnostics.Error if no legal schedule can be found within
    budget — use {!schedule_with_deps} for the non-raising variant. *)
val run :
  ?param_floor:int ->
  ?budget:Linalg.Budget.t ->
  ?engine:Engine.choice ->
  config ->
  Scop.Program.t ->
  result

(** {!run} with dependences already computed (they must include input
    dependences if downstream wants them) and the failure path reified:
    a schedule that failed verification or a search that died (budget
    exhaustion included) comes back as [Error d] instead of raising.
    The Farkas spaces go into the caller's [memo], so the searches of
    one ladder or one enumeration can share it. This is the entry point
    the degradation ladder ({!Fusion.Resilient}) builds on. *)
val schedule_with_deps :
  ?budget:Linalg.Budget.t ->
  ?engine:Engine.choice ->
  memo:Farkas.memo ->
  config ->
  Scop.Program.t ->
  Deps.Dep.t list ->
  (result, Diagnostics.t) Stdlib.result

(** Fusion partitions as lists of statement ids, in execution order. *)
val partitions : result -> int list list

(** The dimensionality (maximum statement depth) of an SCC. *)
val scc_dim : Scop.Program.t -> int list -> int
