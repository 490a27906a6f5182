(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    coprime with the numerator; zero is [0/1].

    An integer whose numerator fits a native [int] is carried as that
    int, an immediate that allocates nothing; any other value is one
    record of two {!Bigint}s. Every value has exactly one
    representation, so structural equality and [Hashtbl.hash] agree
    with {!equal}. Polymorphic [compare] does {e not} order rationals
    numerically (it puts every immediate before every record): order
    them with {!compare} only. *)

type t

val zero : t
val one : t
val minus_one : t

(** [make num den] normalizes the fraction [num/den].
    @raise Division_by_zero if [den] is zero. *)
val make : Bigint.t -> Bigint.t -> t

(** [of_ints n d] is [make (of_int n) (of_int d)]. *)
val of_ints : int -> int -> t

val of_int : int -> t
val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
val den : t -> Bigint.t

(** {1 Queries} *)

(** [sign q] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val is_integer : t -> bool
val equal : t -> t -> bool

(** The numeric order; the only order on rationals (see above). *)
val compare : t -> t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [sub_mul a f b] is [sub a (mul f b)], fused: on native operands it
    computes the same intermediates with native integers and allocates
    only the result. Any operand outside the native range, an overflow
    or {!Bigint.chaos_big_path} takes the two generic calls instead, so
    the value and the {!Counters.promotions}/{!Counters.demotions}
    counts always equal theirs. *)
val sub_mul : t -> t -> t -> t

(** @raise Division_by_zero on division by zero. *)
val div : t -> t -> t

(** Multiplicative inverse. @raise Division_by_zero on zero. *)
val inv : t -> t

(** Greatest integer [<= q]. *)
val floor : t -> Bigint.t

(** Least integer [>= q]. *)
val ceil : t -> Bigint.t

(** [to_bigint q] when [is_integer q].
    @raise Failure otherwise. *)
val to_bigint : t -> Bigint.t

val to_string : t -> string

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
