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

(** Memoized Farkas spaces. One schedule search owns one memo and
    passes it to every call, so the memo ends with the search: the
    degradation ladder ([Fusion.Resilient]) shares one across its
    rungs, [Fusion.Search.best] one across its candidates, and
    {!Scheduler.run} makes a fresh one. *)
type memo

(** A fresh, empty memo. *)
val memo : unit -> memo

(** [legality_space ~memo ~d1 ~d2 ~np poly]: all local coefficient
    vectors whose hyperplanes weakly preserve the dependence.

    Both this and {!bounding_space} are memoized in [memo] on
    [(d1, d2, np, {!Poly.Polyhedron.structural_key} poly)]: dependence
    edges whose polyhedra are structurally identical (common for
    uniform stencil accesses) share one multiplier elimination. Cache
    traffic is counted in {!Linalg.Counters.farkas_cache_hits} /
    [farkas_cache_misses]. *)
val legality_space :
  memo:memo -> d1:int -> d2:int -> np:int -> Poly.Polyhedron.t -> Poly.Polyhedron.t

(** [bounding_space ~memo ~d1 ~d2 ~np poly]: the cost-model constraint
    tying the dependence distance to [u.p + w]. *)
val bounding_space :
  memo:memo -> d1:int -> d2:int -> np:int -> Poly.Polyhedron.t -> Poly.Polyhedron.t

(** Does nothing: no memo outlives the search that made it, so there
    is nothing to reset. It stays only because
    [wisebench/compile_wl.ml] still calls it before each job. *)
val reset_cache : unit -> unit
