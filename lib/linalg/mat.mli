(** Dense rational matrices and exact Gaussian elimination.

    Used for: completing partial schedules to full rank, computing the
    orthogonal complement of found hyperplanes (the linear-independence
    constraint of the per-level ILP), and inverting schedule transforms
    during code generation. *)

type t = Q.t array array
(** Row-major; all rows have the same length. The empty matrix with no
    rows is allowed and carries no column information. *)

val of_ints : int array array -> t
val rank : t -> int

(** [inverse m] for square [m].
    @raise Invalid_argument if not square.
    @return [None] if singular. *)
val inverse : t -> t option

(** [orthogonal_complement m] returns a basis of the space orthogonal
    to the rows of [m] in ℚ{^n}, [n] the column count of [m]; i.e. a
    basis of the null space of [m]. Rows of the result are primitive
    integer vectors. *)
val orthogonal_complement : t -> Vec.t list
