(** Affine constraints over an indexed variable space.

    A constraint over [n] variables is stored as [n + 1] rational
    coefficients [a0 .. a(n-1), c] and a kind, and denotes

    - [Ge]: [a . x + c >= 0]
    - [Eq]: [a . x + c  = 0]

    Constraints are kept normalized: coefficients are scaled to a
    primitive integer vector (orientation preserved). *)

type kind = Eq | Ge

type t = private { kind : kind; coeffs : Linalg.Vec.t }
(** [coeffs] has length [n + 1]; the last entry is the constant. *)

(** [make kind coeffs] normalizes and builds a constraint.
    [coeffs] includes the trailing constant. *)
val make : kind -> Linalg.Vec.t -> t

(** [ge coeffs] / [eq coeffs] from integer coefficient lists
    (constant last). *)
val ge : int list -> t

val eq : int list -> t

(** Number of variables (i.e. [length coeffs - 1]). *)
val dim : t -> int

val kind : t -> kind
val coeffs : t -> Linalg.Vec.t

(** Coefficient of variable [i]. *)
val coeff : t -> int -> Linalg.Q.t

(** The trailing constant. *)
val const : t -> Linalg.Q.t

(** [holds c x]: does point [x] satisfy the constraint? *)
val holds : t -> Linalg.Vec.t -> bool

(** [is_trivial c] is [Some true] if the constraint is always true
    (e.g. [0 >= -3]), [Some false] if never ([0 >= 1] or [0 = 5]),
    [None] if it involves variables. *)
val is_trivial : t -> bool option

(** Negate an inequality: [not (a.x + c >= 0)] over the integers is
    [-a.x - c - 1 >= 0]. Requires integer coefficients (guaranteed by
    normalization) and [kind = Ge].
    @raise Invalid_argument on equalities. *)
val negate_int : t -> t

(** Map variable indices: [rename ~dim_to f c] produces a constraint
    over [dim_to] variables where old variable [i] becomes variable
    [f i]. The constant is carried over. *)
val rename : dim_to:int -> (int -> int) -> t -> t

(** Integer tightening: if all variable coefficients are integers with
    gcd [g > 1], an inequality can be tightened to
    [(a/g) . x + floor(c/g) >= 0]. Equalities are unchanged (but an
    equality with [g] not dividing [c] is unsatisfiable over ℤ —
    detected by {!Polyhedron.is_empty}). *)
val tighten_int : t -> t

(** Canonical textual form of the constraint (kind + normalized
    coefficients): two constraints have equal keys iff they are
    {!equal}. Used to build structural hashes of whole systems for
    memoization (see {!Polyhedron.structural_key}). *)
val structural_key : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : ?names:string array -> Format.formatter -> t -> unit

(** Internal, for {!Polyhedron}: build without copying. *)
val unsafe_make : kind -> Linalg.Vec.t -> t
