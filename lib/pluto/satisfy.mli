(** Dependence satisfaction and per-level classification, given a
    concrete schedule.

    For a dependence e and a schedule row r, the quantity of interest
    is δ(z) = ϕ_dst(t) − ϕ_src(s) over the dependence polyhedron. Its
    exact rational range [dmin, dmax] (computed by LP) classifies the
    row:

    - dmin ≥ 1: the row {e carries} (strongly satisfies) e;
    - dmin = dmax = 0: e is level-independent at this row;
    - dmin ≥ 0 < dmax: legal, but the loop has a {e forward}
      dependence — a pipelined (non-communication-free) loop;
    - dmin < 0: the row violates e (illegal unless e was satisfied at
      an earlier row). *)

type range = {
  dmin : Linalg.Q.t option;  (** [None] = unbounded below *)
  dmax : Linalg.Q.t option;  (** [None] = unbounded above *)
}

(** δ range of a dependence at one row. *)
val diff_range : Scop.Program.t -> Deps.Dep.t -> Sched.t -> level:int -> range

(** First row index that strongly satisfies the dependence, scanning
    rows outermost-first; rows after the first satisfying one are
    unconstrained (lexicographic positivity). *)
val satisfaction_level : Scop.Program.t -> Deps.Dep.t -> Sched.t -> int option

(** [legal prog deps sched]: every true dependence is strongly
    satisfied at some row, and no row before its satisfaction level has
    a negative δ. Dependences tagged {!Deps.Dep.Reduction} are exempt —
    a proven reduction chain may be reordered, so its self-dependences
    are pre-satisfied by definition. Returns the offending dependence
    if any. *)
val check_legal : Scop.Program.t -> Deps.Dep.t list -> Sched.t -> (unit, Deps.Dep.t) result

(** [check_complete prog sched]: structural completeness — every
    statement is covered, all statements have the same number of rows,
    each statement has exactly [depth] rows with a nonzero iterator
    part, and those rows form a non-singular transform. Exactly the
    preconditions code generation relies on; violations surface as
    typed diagnostics instead of failures inside codegen. *)
val check_complete : Scop.Program.t -> Sched.t -> (unit, Diagnostics.t) result

(** The single source of truth for loop parallelism vocabulary.
    [Codegen.Ast.parallelism] re-exports this type for generated loops,
    and {!loop_class_name} names it everywhere. *)
type loop_class =
  | Parallel  (** communication-free: every live dependence has δ = 0 *)
  | Parallel_reduction
      (** every dependence the loop carries is a reduction-tagged
          self-dependence: parallel after privatizing the accumulator
          per worker and combining partial results at the barrier *)
  | Forward  (** carries or may carry a dependence forward: pipelined *)
  | Sequential
      (** demoted to serial execution (e.g. by the icc model's
          parallelization heuristics); never produced by
          {!row_class}, which only classifies the dependence
          structure *)

val loop_class_name : loop_class -> string

(** [row_class prog deps sched ~level ~members] classifies the loop at
    row [level] for the set of statements [members] (a fusion
    partition), considering only dependences with both endpoints in
    [members] that are not satisfied before [level]. Returns
    [Parallel] if the loop carries nothing, [Parallel_reduction] if
    everything it carries is tagged {!Deps.Dep.Reduction}, [Forward]
    otherwise — never [Sequential]. *)
val row_class :
  Scop.Program.t -> Deps.Dep.t list -> Sched.t -> level:int -> members:int list ->
  loop_class
