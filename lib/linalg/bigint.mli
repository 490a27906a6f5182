(** Arbitrary-precision signed integers with an immediate fast path.

    This module replaces GMP for the exact arithmetic needed by the
    polyhedral substrate (Fourier-Motzkin elimination and exact simplex
    pivoting produce coefficients that overflow native integers).

    The representation is two-variant: values that fit a native OCaml
    [int] are carried unboxed ([Small]), with overflow-checked add, sub
    and mul that promote lazily to the [Big] fallback — sign +
    magnitude, where the magnitude is a little-endian array of
    base-2{^30} digits with no leading zeros. A [Big] never holds a
    value that fits a native [int] (operations demote on the way out),
    so almost all pipeline arithmetic runs on unboxed integers. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t
val two : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer. Total. *)
val of_int : int -> t

(** [to_int x] converts back to a native integer.
    @raise Failure if [x] does not fit in a native [int]. *)
val to_int : t -> int

(** [to_int_opt x] is [Some n] if [x] fits in a native [int]. *)
val to_int_opt : t -> int option

(** [of_string s] parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val to_string : t -> string

(** [to_float x] is a best-effort float approximation. *)
val to_float : t -> float

(** {1 Queries} *)

(** [sign x] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [fits_int x] is [true] iff [to_int x] would succeed. *)
val fits_int : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

(** [divmod a b] is [(q, r)] with [a = q*b + r], [0 <= |r| < |b|] and
    [r] carrying the sign of [a] (truncated division, like OCaml [/]).
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** Truncated quotient. @raise Division_by_zero if divisor is zero. *)
val div : t -> t -> t

(** Truncated remainder. @raise Division_by_zero if divisor is zero. *)
val rem : t -> t -> t

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

val mul_int : t -> int -> t

(** [pow x n] for [n >= 0]. @raise Invalid_argument if [n < 0]. *)
val pow : t -> int -> t

val min : t -> t -> t
val max : t -> t -> t

(** {1 Representation introspection}

    For tests and diagnostics. {!Counters.promotions} and
    {!Counters.demotions} track how often values cross the
    [Small]/[Big] boundary. *)

(** [is_small x] is [true] iff [x] is carried in the immediate
    (native-int) representation. Canonically equal to [fits_int]. *)
val is_small : t -> bool

(** [force_big x] is [x] re-encoded in the [Big] (boxed) representation
    even when it fits a native int. The result is {e non-canonical}:
    arithmetic on it is exact and re-canonicalizes, but order
    comparisons between a non-canonical value and a [Small] are
    unspecified. Only for differential testing of the two code paths. *)
val force_big : t -> t

(** Chaos hook (fault injection, test suite only): when set, the
    Small/Small fast paths of [add]/[sub]/[mul]/[divmod]/[gcd] are
    disabled and every operation runs the Big (promotion) route.
    Values stay canonical — results demote — so outputs are identical;
    only the computation path (and {!Counters.promotions}) changes. *)
val chaos_big_path : bool ref

(** [unbox x] is [x] as a native int when every Small/Small fast path
    would take it, and [min_int] otherwise: when [x] is [Big], when
    {!chaos_big_path} is set, and for [min_int] itself, whose negation
    already promotes. Fused kernels such as {!Q.sub_mul} read their
    operands through it and fall back to the generic operations on
    [min_int]. Allocation-free. *)
val unbox : t -> int

(** {1 Infix operators and printing} *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( ~- ) : t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
