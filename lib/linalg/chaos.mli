(** Test hooks: fault injection and differential checks, all in one
    place.

    Each hook sends one layer down a path that production never takes,
    so that a test can check that the path gives the same answer, or
    fails typed. Production never arms a hook. A read site loads one
    {!hooks} field, and with the hook off goes on as if this module did
    not exist: output and counters do not change.

    Hooks are armed only through {!arm}, for the length of one
    callback; the settings before it come back when the callback
    returns or raises. The hooks are process-wide, so solves on other
    domains see them too. Arm them from one domain at a time. *)

(** A fault for one cold solve of the serving daemon. *)
type fault =
  | Raise
      (** poison a solver counter inside the solve's scope, then raise:
          the daemon's exception firewall must answer typed, and the
          counters must die with the scope *)
  | Exhaust
      (** starve the request's budget to one pivot, so every solver
          rung trips and the ladder settles on the unbudgeted identity
          rung *)
  | Slow of int
      (** sleep this many milliseconds before solving; delays only the
          requests for the same key *)

(** A source of per-cold-solve faults, with tallies of the faults it
    has handed out. *)
type plan

(** [queue faults] hands each fault to exactly one cold solve, in
    order, and then lets every solve run clean. Safe to draw from
    several domains at once. *)
val queue : fault list -> plan

(** [sampled draw] gives every cold solve [draw ()]. The daemon may
    call [draw] from several domains at once. *)
val sampled : (unit -> fault option) -> plan

(** The number of [Raise], [Exhaust] and [Slow] faults [plan] has
    handed out. *)
val raises : plan -> int

val exhausts : plan -> int
val slows : plan -> int

(** The hook settings. Only {!arm} writes them. *)
type hooks = private {
  mutable big_path : bool;
      (** {!Bigint} takes its boxed route on native operands too, and
          {!Bigint.unbox} answers [min_int]; every LP solve
          ([Ilp.Lp]), cold or warm re-solve, runs on the rational
          simplex tableau instead of the native-int one, and
          {!Vec.normalize_int} normalizes every row on the generic
          path. Values stay canonical, so only the path and
          {!Counters.promotions} change. *)
  mutable bland : bool;
      (** the simplex pivots by Bland's least-index rule from the first
          pivot, instead of by Dantzig's rule until the objective
          stalls *)
  mutable exhaust : bool;
      (** every LP solve answers [Exhausted] without pivoting *)
  mutable cold_reoptimize : bool;
      (** every warm re-solve ([Lp.reoptimize]) solves cold instead *)
  mutable check_warm : bool;
      (** branch-and-bound re-solves each warm node's LP cold and fails
          ([Failure _]) unless both agree on the status and the optimal
          value and the warm point is feasible *)
  mutable linear_cuts : bool;
      (** an lp-dfp level whose LP relaxation is infeasible takes one
          fallback cut per solve ([Pluto.Scheduler]'s reference scan),
          instead of bisecting the fallback-cut chain for its first
          feasible state *)
  mutable faults : plan option;  (** the daemon's per-cold-solve faults *)
}

val hooks : hooks

(** [arm ... f] runs [f] with the given hooks set, and every hook it
    does not name as it is. When [f] returns or raises, every hook reads
    as it did before, and a [plan] armed by an outer call hands out
    faults again. *)
val arm :
  ?big_path:bool ->
  ?bland:bool ->
  ?exhaust:bool ->
  ?cold_reoptimize:bool ->
  ?check_warm:bool ->
  ?linear_cuts:bool ->
  ?faults:plan ->
  (unit -> 'a) ->
  'a

(** [with_fault budget run] is one cold solve of the daemon, [run
    budget], under the next fault of the armed plan, if there is one:
    [Raise] raises instead of running, [Exhaust] runs with a one-pivot
    budget in place of [budget], and [Slow ms] sleeps first. *)
val with_fault : Budget.t option -> (Budget.t option -> 'a) -> 'a
