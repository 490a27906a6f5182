(** Dense rational matrices and exact Gaussian elimination.

    Used for: completing partial schedules to full rank, computing the
    orthogonal complement of found hyperplanes (the linear-independence
    constraint of the per-level ILP), and inverting schedule transforms
    during code generation. *)

type t = Q.t array array
(** Row-major; all rows have the same length. The empty matrix with no
    rows is allowed and carries no column information. *)

val identity : int -> t
val of_ints : int array array -> t
val row : t -> int -> Vec.t

(** [mul a b]. @raise Invalid_argument on inner dimension mismatch. *)
val mul : t -> t -> t

(** [mul_vec a v] is [a * v]. *)
val mul_vec : t -> Vec.t -> Vec.t

val equal : t -> t -> bool

(** [rref m] returns the reduced row echelon form together with the
    list of pivot column indices (in row order). *)
val rref : t -> t * int list

val rank : t -> int

(** [nullspace m] returns a basis (possibly empty) of the right null
    space [{x | m x = 0}]; each vector has one entry per column of [m]. *)
val nullspace : t -> Vec.t list

(** [inverse m] for square [m].
    @raise Invalid_argument if not square.
    @return [None] if singular. *)
val inverse : t -> t option

(** [solve a b] returns some [x] with [a x = b], if one exists. *)
val solve : t -> Vec.t -> Vec.t option

(** [row_space_contains m v]: is [v] a linear combination of the rows
    of [m]? (The empty matrix contains only... nothing, so any non-zero
    [v] is outside it.) *)
val row_space_contains : t -> Vec.t -> bool

(** [orthogonal_complement m] returns a basis of the space orthogonal
    to the rows of [m] in ℚ{^n}, [n] the column count of [m]; i.e. a
    basis of the null space of [m]. Rows of the result are primitive
    integer vectors. *)
val orthogonal_complement : t -> Vec.t list
