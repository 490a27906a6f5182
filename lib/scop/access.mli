(** Affine array accesses.

    An access into array [array] from a statement with [d] enclosing
    loop iterators in a SCoP with [np] parameters is a matrix with one
    row per array subscript; each row has [d + np + 1] integer entries
    (iterator coefficients, parameter coefficients, constant). *)

type t = {
  array : string;
  idx : int array array;  (** one row per subscript, constant last *)
}

val make : string -> int array array -> t

(** Number of subscripts. *)
val arity : t -> int

(** Row width, i.e. [d + np + 1] for the owning statement. *)
val width : t -> int

(** [eval a ~iters ~params] computes the concrete subscripts. *)
val eval : t -> iters:int array -> params:int array -> int array

(** Structural equality. *)
val equal : t -> t -> bool

(** Do two accesses touch the same array? *)
val same_array : t -> t -> bool

(** [affine name row] writes the integer affine form [row] (one
    coefficient per column, named [name i]; the constant last), as in
    ["2*i+j-N-1"]: zero terms are dropped, a unit coefficient prints
    as its sign alone, a non-zero constant follows the terms with its
    sign, and a form without terms is its constant. The one writer of
    affine forms for subscripts, schedule rows, loop bounds and C
    guards. *)
val affine : (int -> string) -> int array -> string

val pp : ?iter_names:string array -> ?param_names:string array ->
  Format.formatter -> t -> unit
