(** Multidimensional affine schedules (statement-wise transforms).

    A schedule assigns every statement the same number of rows; each
    row is either a loop hyperplane — integer coefficients over the
    statement's [iters ++ params ++ 1] — or a scalar dimension (a
    fusion "cut" / textual position, the paper's ϕ with all iterator
    coefficients zero). Rows are outermost first. *)

type row =
  | Hyp of int array  (** width [depth + nparams + 1], constant last *)
  | Beta of int  (** scalar dimension: partition / textual position *)

type t = row list array
(** indexed by statement id; every list has the same length and the
    same row kinds at each position. *)

(** [phi_diff ~d1 ~d2 ~np src_row dst_row] builds the affine form
    ϕ_dst(t) − ϕ_src(s) over the dependence space
    [s (d1); t (d2); params (np)] as a vector of length
    [d1 + d2 + np + 1] (constant last). Both rows must be [Hyp] (a
    [Beta] row is converted to a pure-constant form first via
    {!row_as_hyp}). *)
val phi_diff :
  d1:int -> d2:int -> np:int -> int array -> int array -> Linalg.Vec.t

(** View any row as hyperplane coefficients of a given statement
    ([Beta b] becomes the constant form [0 ... 0 b]). *)
val row_as_hyp : depth:int -> np:int -> row -> int array

(** Number of rows (same for all statements).
    @raise Invalid_argument on an empty schedule. *)
val num_rows : t -> int

(** Outermost fusion partition, indexed by statement id: statements
    with the same scalar rows before their first loop row share the
    outermost loop nest. Groups are numbered 0, 1, ... in order of
    their first statement. *)
val outer_partition : t -> int array

val pp : Scop.Program.t -> Format.formatter -> t -> unit
