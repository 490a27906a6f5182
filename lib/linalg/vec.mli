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
    orientation). Returns the zero vector unchanged. *)
val normalize_int : t -> t
