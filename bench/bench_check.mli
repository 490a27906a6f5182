(** One-sided bounds for the chaos soak's survival gate
    (`bench -- soak`) and wisebench's [--compare] verdicts.

    Separated from the bench driver so the verdict logic (including the
    non-finite guard) can be unit-tested without running any
    benchmark. *)

type bound_verdict =
  | Met of float  (** the measured value; bound satisfied *)
  | Violation of float  (** the measured value; bound broken *)
  | Bad_value  (** measurement or bound not finite — no verdict *)

(** [check_min ~floor ~value] — is [value >= floor]? *)
val check_min : floor:float -> value:float -> bound_verdict

(** [check_max ~ceiling ~value] — is [value <= ceiling]? *)
val check_max : ceiling:float -> value:float -> bound_verdict

(** Only a confirmed [Violation] fails; callers decide what
    [Bad_value] means to them (the soak gate fails it). *)
val bound_failure : bound_verdict -> bool

val describe_bound : bound_verdict -> string
