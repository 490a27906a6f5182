(** Solver resource budgets: wall-clock time, simplex pivots,
    branch-and-bound nodes.

    A budget is charged by the exact solvers from their hot loops
    ({!Ilp.Lp}, {!Ilp.Bb}) and threaded through the scheduler.
    Exhaustion is {e latched}: once any limit trips, every further
    charge fails immediately, so nested solves unwind quickly. Across
    the public solver APIs exhaustion never raises — it surfaces as a
    typed outcome ([Lp.Exhausted], [None] from [Bb.lexmin]) on which
    callers run their graceful-degradation ladder. *)

type t

(** [make ?ms ?pivots ?nodes ()] — any subset of limits; omitted
    dimensions are unlimited. [ms] is wall-clock from now. *)
val make : ?ms:int -> ?pivots:int -> ?nodes:int -> unit -> t

(** A fresh budget with the same limits, zero consumption and a
    restarted wall clock — one allowance per degradation rung. *)
val refresh : t -> t

(** Latched exhaustion state. *)
val exhausted : t -> bool

(** Charge one simplex pivot / one branch-and-bound node. [false]
    means the budget is exhausted and the caller must stop. *)
val spend_pivot : t -> bool

val spend_node : t -> bool

(** A wall-clock budget of [WISEFUSE_BUDGET_MS] milliseconds; [None]
    when the variable is unset (the unbudgeted fast path). A
    non-positive or malformed value is ignored. *)
val of_env : unit -> t option

val pp : Format.formatter -> t -> unit
