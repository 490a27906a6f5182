(** Convex polyhedra described by conjunctions of affine constraints,
    with exact Fourier-Motzkin projection.

    This module is the ISL-set replacement used for iteration domains,
    dependence polyhedra, and Farkas-multiplier elimination. All
    arithmetic is exact. Integer tightening (gcd normalization of
    inequalities) is applied during projection, so {!is_empty} is sound
    for integer sets: [true] guarantees no integer point. Exact integer
    emptiness (branch-and-bound) lives in the [ilp] library.

    {b Stored order.} A polyhedron keeps its rows in one order, and
    every operation but {!make} and {!rename} keeps that order instead
    of re-deriving it: sorted by {!Constr.compare}, without duplicates,
    with only the tightest (smallest constant) of parallel inequalities,
    and without trivially true or false rows (a trivially false one sets
    the known-empty marker instead). Contradictory equalities with one normal vector
    both stay, so emptiness checks see them. {!constraints} returns the
    rows in this order. The LPs over a polyhedron pivot through its rows
    in this order, so pivot sequences depend on it, and so do the solver
    counters that serve payloads embed: a change to the order changes
    observable output. *)

type t

(** [make dim constraints].
    @raise Invalid_argument if a constraint has the wrong dimension. *)
val make : int -> Constr.t list -> t

val dim : t -> int

(** The rows in stored order; a known-empty polyhedron returns the one
    row [-1 >= 0]. *)
val constraints : t -> Constr.t list

(** [add] and [add_list] merge the new rows into the stored list.
    @raise Invalid_argument on dimension mismatch. *)
val add : t -> Constr.t -> t

val add_list : t -> Constr.t list -> t

(** Merges the two stored lists.
    @raise Invalid_argument on dimension mismatch. *)
val intersect : t -> t -> t

(** [filter f p] keeps the [i]-th row [c] of [constraints p] when
    [f i c]: it is [make (dim p) (List.filteri f (constraints p))],
    taken as a subsequence of the stored list, with nothing re-sorted. *)
val filter : (int -> Constr.t -> bool) -> t -> t

(** [contains p x] for a rational point [x]. *)
val contains : t -> Linalg.Vec.t -> bool

(** [contains_int p x] for an integer point. *)
val contains_int : t -> int array -> bool

(** [eliminate ?integer p vars] projects away the variables whose
    indices are in [vars] (Fourier-Motzkin). The remaining variables
    are renumbered in increasing order of their old index. With
    [integer:true] (default) gcd tightening is applied — sound only
    when the eliminated variables range over integers; pass
    [integer:false] for rational variables (e.g. Farkas multipliers).
    The result over-approximates the integer projection (standard FM
    property) and is exact over the rationals. *)
val eliminate : ?integer:bool -> t -> int list -> t

(** Rational (FM-based) emptiness with integer tightening.
    [true] implies the set has no integer point (indeed no rational
    point except via tightening, which only removes non-integer ones).
    [false] means a rational point exists; an integer point is likely
    but not guaranteed. *)
val is_empty : t -> bool

(** [rename p ~dim_to f] applies {!Constr.rename} to all constraints
    and classifies the result as {!make} does: a row whose merged
    columns cancel is dropped when trivially true and marks the result
    empty when trivially false. *)
val rename : t -> dim_to:int -> (int -> int) -> t

(** Enumerate all integer points of [p] within the box
    [lo.(i) <= x_i <= hi.(i)] (for tests and the advisory sampler;
    exponential in [dim]). Points are returned in lexicographic
    order. *)
val integer_points : lo:int array -> hi:int array -> t -> int array list

(** [lower_upper_bounds p k] classifies the constraints of [p] by their
    sign on variable [k]: [(lower, upper, rest)] where constraints in
    [lower] have positive coefficient on [k] (they bound it from below)
    and [upper] negative. Equalities with a non-zero coefficient appear
    in both lists (as the pair of induced inequalities). *)
val lower_upper_bounds : t -> int -> Constr.t list * Constr.t list * Constr.t list

(** Canonical structural hash key of the constraint system: dimension
    plus the sorted, normalized constraints. Two polyhedra have equal
    keys iff they are {!equal} — in particular, dependence polyhedra
    that are identical up to statement renaming (same dimensions, same
    constraint systems) collide, which is what the Farkas memoization
    in [lib/pluto] keys on.

    {b Frozen format} (v1 — do not change without versioning every
    consumer): the key is

    {[ <dim> ["!empty"] (";" <constr>)* ]}

    where [<dim>] is [string_of_int (dim p)], ["!empty"] appears iff a
    trivially-false constraint was seen at construction (the trivial
    constraint itself is dropped from the system), and each
    [<constr>] is {!Constr.structural_key} — the kind character ['e']
    (equality) or ['g'] (inequality [>= 0]) followed by one
    [" " ^ Q.to_string c] per normalized coefficient, constant last —
    with the constraints sorted by {!Constr.compare}. Example: the 1-d
    system [x >= 0, x = 3] renders ["1;e 1 -3;g 1 0"].

    The serving layer's content-addressed cache builds request
    fingerprints from these keys ([Serve.Fingerprint], versioned
    ["wisefuse-fp-v2"]), and persisted cache keys outlive any single
    process — a silent format change would turn every stored key stale
    and corrupt cross-version hit accounting. The golden regression
    test in [test/test_poly.ml] pins this rendering; update the version
    tag in [Serve.Fingerprint.version] if it ever has to move. *)
val structural_key : t -> string

val equal : t -> t -> bool
