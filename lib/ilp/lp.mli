(** Exact rational linear programming (two-phase simplex over a
    dictionary-form tableau).

    Variables are unrestricted in sign; non-negativity must appear as
    explicit constraints in the polyhedron when wanted. The pivot rule
    is Dantzig's largest-coefficient rule with an automatic, permanent
    fallback to Bland's least-index rule when the objective stalls on a
    degenerate vertex — so termination is still guaranteed. There is no
    tolerance anywhere.

    Every solve — cold ({!minimize}, {!maximize}, {!minimize_warm}) or
    warm ({!reoptimize}) — pivots on a fraction-free tableau of native
    ints: each row is an [int array] of numerators plus one positive
    row denominator, kept in lowest terms, and every numerator and
    denominator stays strictly inside ±2{^⌊(Sys.int_size − 3)/2⌋}
    (2{^30} on 64-bit), so no inner-loop product overflows. A solve
    whose numbers leave that range, or whose constraints or objective
    are not integral, runs again on a tableau of {!Linalg.Q}
    rationals, which has no range limit: a cold solve from scratch, a
    re-solve from its snapshot (never cold, so that the answer does not
    depend on the range). Both tableaux decide every pivot on the same
    rationals, so they take the same pivots, return the same result and
    count the same solves and pivots in {!Linalg.Counters}: the rerun
    resets {!Linalg.Counters.lp_pivots} and
    {!Linalg.Counters.dual_pivots} to their values at entry, bills a
    budget only for pivots the native attempt did not bill, and bumps
    no counter and emits no trace event of its own. The native tableau
    does no {!Linalg.Bigint} arithmetic, so a solve that finishes on it
    counts no {!Linalg.Counters.promotions}, where the rational one may
    promote an intermediate product. The
    {!Linalg.Chaos}[.hooks.big_path] test hook sends every solve, cold
    or warm, to the rational tableau. *)

type result =
  | Infeasible
  | Unbounded
  | Optimal of Linalg.Q.t * Linalg.Vec.t
      (** optimal objective value and one optimal point *)
  | Exhausted
      (** the solve hit its {!Linalg.Budget} before reaching a verdict
          — neither feasibility nor optimality is known. Never produced
          on an unbudgeted call, unless the {!Linalg.Chaos} [exhaust]
          test hook is armed. *)

(** [minimize ?nonneg ?budget p obj] minimizes the affine
    objective [obj] (length [dim p + 1], trailing constant) over
    polyhedron [p]. With [nonneg:true] every variable is additionally
    constrained to be [>= 0] (and the free-variable split is skipped —
    cheaper; callers must not also add explicit [x >= 0] rows). With
    [budget], every simplex pivot is charged to it and exhaustion
    yields [Exhausted] rather than an exception.
    @raise Invalid_argument on objective length mismatch. *)
val minimize :
  ?nonneg:bool ->
  ?budget:Linalg.Budget.t ->
  Poly.Polyhedron.t ->
  Linalg.Vec.t ->
  result

(** [maximize p obj] likewise (implemented by negation). *)
val maximize :
  ?nonneg:bool ->
  ?budget:Linalg.Budget.t ->
  Poly.Polyhedron.t ->
  Linalg.Vec.t ->
  result

(** {1 Incremental re-solving}

    An optimal solve can capture a [warm] snapshot of its final simplex
    tableau. Because that basis is both primal- and dual-feasible,
    closely related programs can be re-solved without the phase-1
    feasibility search:

    - adding constraints keeps the basis dual-feasible, so
      {!reoptimize} prices the new rows into the basis and runs {e dual
      simplex} back to primal feasibility (the classic branch-and-bound
      warm start);
    - changing the objective keeps the basis primal-feasible, so the
      new reduced costs are priced out and primal phase 2 resumes.

    Warm re-solves reach the same {e optimal value} as a cold solve but
    may return a {e different optimal point} when the optimum is
    degenerate; callers that consume the point (rather than the value)
    and need reproducibility should solve cold. On basis
    incompatibility or when the dual iteration guard trips, [reoptimize]
    transparently falls back to a cold solve
    ({!Linalg.Counters.warm_fallbacks}). Warm solves that complete on
    the warm path bump {!Linalg.Counters.warm_starts}; their pivots are
    counted in {!Linalg.Counters.dual_pivots} (dual phase) and
    {!Linalg.Counters.lp_pivots} (primal phase), so total simplex
    effort is the sum of the two pivot counters. *)

(** A resumable snapshot of an optimal solve. Immutable: a re-solve
    shares the snapshot's rows and copies each one before a pivot first
    writes it, so one snapshot can seed many re-solves (e.g. both
    children of a branch-and-bound node). A snapshot holds the final
    tableau of the solve that made it, native or rational. A native one
    is converted to the rational tableau only when a re-solve from it
    has to run there, and that conversion is not synchronized: use a
    snapshot only on the domain that made it. *)
type warm

(** Like {!minimize}, additionally returning a warm snapshot when the
    program is bounded and feasible. *)
val minimize_warm :
  ?nonneg:bool ->
  ?budget:Linalg.Budget.t ->
  Poly.Polyhedron.t ->
  Linalg.Vec.t ->
  result * warm option

(** [reoptimize w ~add ~obj] solves [w]'s program with the constraints
    [add] appended and (affine) objective [obj] — either or both may
    differ from the snapshot — starting from [w]'s final basis. *)
val reoptimize :
  ?budget:Linalg.Budget.t ->
  warm ->
  add:Poly.Constr.t list ->
  obj:Linalg.Vec.t ->
  result * warm option

(** [is_native w] is [true] when [w] holds the native tableau of the
    solve that made it, so that its re-solves start on the native
    tableau, and [false] when that solve ran on the rational tableau:
    it left the native range, or ran under the [big_path] hook. It
    tells tests which path a solve took; no answer depends on it. *)
val is_native : warm -> bool
