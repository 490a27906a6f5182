(** Dense rational vectors. *)

type t = Q.t array

val zero : int -> t

val of_ints : int array -> t
val of_int_list : int list -> t
val copy : t -> t
val dim : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Q.t -> t -> t

val is_zero : t -> bool
val equal : t -> t -> bool

(** [normalize_int v] scales a rational vector to the unique primitive
    integer vector pointing the same way (integer entries, gcd 1, same
    orientation), as a fresh array; the zero vector comes back as a
    fresh zero vector.

    When every entry is an integer that fits a native int, other than
    [min_int], the gcd is taken on native ints and the row divided once.
    Any other row — one holding a fraction, an integer beyond the native
    range or [min_int], and every row under {!Chaos.hooks}[.big_path] —
    takes the generic {!Bigint} path. Both give the same vector, and on a native row neither moves
    {!Counters.promotions} or {!Counters.demotions}. *)
val normalize_int : t -> t
