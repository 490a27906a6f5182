(** Fault injection for the serving layer (tests and the soak harness).

    The server consults {!solve_fault} once per cold solve. Cold solves
    of different keys run concurrently, so the hook may be called from
    several domains at once; {!arm_queue} is safe under that, and each
    planned fault is consumed by exactly one solve. Production never
    arms the hook. *)

type fault =
  | Raise  (** poison a solver counter mid-solve, then raise {!Injected} *)
  | Exhaust
      (** starve the request's budget so every solver rung trips and
          the ladder settles on the identity rung *)
  | Slow of int
      (** sleep [ms] before solving; delays only requests for the same
          key *)

exception Injected of string

(** The per-cold-solve hook; default returns [None] (no fault). *)
val solve_fault : (unit -> fault option) ref

(** Consumption tallies, for soak-survival accounting; atomic, since
    faults fire on whichever domain solves. *)
val injected_raises : int Atomic.t

val injected_exhausts : int Atomic.t
val injected_slows : int Atomic.t

(** The recognizable value [Raise] adds to [Counters.lp_solves] before
    raising — recovery tests assert it never outlives the faulted
    solve. *)
val poison_marker : int

(** The one-pivot budget the server substitutes for an [Exhaust]
    fault's request. *)
val starved_budget : unit -> Linalg.Budget.t

(** [apply fault run] executes [run] under the fault (used by the
    server; exposed for direct tests). For [Exhaust] the budget swap
    has already happened when [run] was built — this only tallies. *)
val apply : fault -> (unit -> 'a) -> 'a

(** Arm a fixed fault plan: each queued fault is consumed by exactly
    one cold solve, after which solves run clean. *)
val arm_queue : fault list -> unit

(** Disarm the hook and zero the tallies. *)
val reset : unit -> unit
