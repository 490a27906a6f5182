(** Arbitrary-precision signed integers with an immediate fast path.

    This module replaces GMP for the exact arithmetic needed by the
    polyhedral substrate (Fourier-Motzkin elimination and exact simplex
    pivoting produce coefficients that overflow native integers).

    A value that fits a native OCaml [int] is that int, an immediate
    that allocates nothing; any other value is a pointer to a sign +
    magnitude record, the magnitude a little-endian array of
    base-2{^30} digits with no leading zeros (Zarith's layout). Add,
    sub, mul, division and gcd run natively with an overflow check and
    promote to the record only on overflow; a record never holds a
    value that fits a native [int] (operations demote on the way out).
    So every value has exactly one representation, structural equality
    and [Hashtbl.hash] agree with {!equal}, and almost all pipeline
    arithmetic allocates nothing. Polymorphic [compare] does {e not}
    order them numerically: use {!compare}. *)

type t

(** {1 Constants} *)

val zero : t
val one : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer. Total. *)
val of_int : int -> t

(** [to_int x] converts back to a native integer.
    @raise Failure if [x] does not fit in a native [int]. *)
val to_int : t -> int

(** [to_int_opt x] is [Some n] if [x] fits in a native [int]. *)
val to_int_opt : t -> int option

val to_string : t -> string

(** {1 Queries} *)

(** [sign x] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val mul : t -> t -> t

(** Truncated quotient, like OCaml [/].
    @raise Division_by_zero if divisor is zero. *)
val div : t -> t -> t

(** [fdiv a b] is the floor division: largest [q] with [q*b <= a]
    (assuming [b > 0]); more generally floor of the rational quotient.
    @raise Division_by_zero if [b] is zero. *)
val fdiv : t -> t -> t

(** [cdiv a b] is the ceiling of the rational quotient.
    @raise Division_by_zero if [b] is zero. *)
val cdiv : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor;
    [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [lcm a b] is the non-negative least common multiple. *)
val lcm : t -> t -> t

(** {1 Representation introspection}

    For tests and diagnostics. {!Counters.promotions} and
    {!Counters.demotions} track how often values cross the boundary
    between the immediate and the boxed representation. *)

(** [is_small x] is [true] iff [x] is carried as an immediate native
    int, which canonically is exactly when it fits one. *)
val is_small : t -> bool

(** [force_big x] is [x] re-encoded in the boxed representation even
    when it fits a native int. The result is {e non-canonical}:
    arithmetic on it is exact and re-canonicalizes, but order
    comparisons between a non-canonical value and an immediate are
    unspecified. Only for differential testing of the two code paths. *)
val force_big : t -> t

(** [unbox x] is [x] as a native int when every native fast path would
    take it, and [min_int] otherwise: when [x] is boxed, when
    {!Chaos.hooks}[.big_path] is set, and for [min_int] itself, whose negation
    already promotes. Fused kernels such as {!Q.sub_mul} read their
    operands through it and fall back to the generic operations on
    [min_int]. *)
val unbox : t -> int
