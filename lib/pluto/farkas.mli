(** Affine form of the Farkas lemma, applied to dependence polyhedra.

    A dependence edge e: S_src -> S_dst with polyhedron P_e over
    z = [s (d1); t (d2); params (np)] induces two requirements on the
    unknown hyperplane coefficients (Bondhugula et al., CC'08):

    - legality:  ϕ_dst(t) − ϕ_src(s) ≥ 0            ∀ z ∈ P_e
    - bounding:  u.p + w − (ϕ_dst(t) − ϕ_src(s)) ≥ 0 ∀ z ∈ P_e

    Each is turned into linear constraints on the coefficients by
    writing the form as a non-negative combination λ0 + λ.P_e of the
    polyhedron's constraints, equating coefficients dimension by
    dimension, and eliminating the multipliers λ by (rational)
    Fourier-Motzkin.

    The resulting constraint sets live in a {e local} coefficient
    space; the scheduler renames them into its global ILP space:

    {v
    0 .. d1-1          iterator coefficients of ϕ_src
    d1                 constant of ϕ_src
    d1+1 .. d1+d2      iterator coefficients of ϕ_dst
    d1+1+d2            constant of ϕ_dst
    d1+d2+2 .. +np-1   u (one per parameter)
    d1+d2+2+np         w
    v} *)

(** [legality_space ~d1 ~d2 ~np poly]: all local coefficient vectors
    whose hyperplanes weakly preserve the dependence.

    Both this and {!bounding_space} are memoized on
    [(d1, d2, np, {!Poly.Polyhedron.structural_key} poly)]: dependence
    edges whose polyhedra are structurally identical (common for
    uniform stencil accesses) share one multiplier elimination. Cache
    traffic is counted in {!Linalg.Counters.farkas_cache_hits} /
    [farkas_cache_misses]. *)
val legality_space :
  d1:int -> d2:int -> np:int -> Poly.Polyhedron.t -> Poly.Polyhedron.t

(** [bounding_space ~d1 ~d2 ~np poly]: the cost-model constraint tying
    the dependence distance to [u.p + w]. *)
val bounding_space :
  d1:int -> d2:int -> np:int -> Poly.Polyhedron.t -> Poly.Polyhedron.t

(** Drop all memoized Farkas systems of the calling domain (the memo is
    domain-local). Benchmarks call this between repetitions so each
    measured run pays its own eliminations. *)
val reset_cache : unit -> unit

(** [scoped f] runs [f ()] with a fresh, empty memo for the calling
    domain and restores the caller's memo when [f] returns or raises;
    the systems [f] memoized are dropped. Every pipeline run
    ([Fusion.Resilient.optimize]) runs in one. *)
val scoped : (unit -> 'a) -> 'a
