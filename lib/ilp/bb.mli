(** Exact integer linear programming by branch-and-bound over the
    rational simplex ({!Lp}).

    Used for: the per-level hyperplane ILP of the Pluto-style scheduler
    (bounded coefficient boxes, so termination is structural) and exact
    integer emptiness of dependence polyhedra.

    The search is incremental: each node's LP re-solves its parent's
    final basis with one added bound constraint ({!Lp.reoptimize}, dual
    simplex), and {!lexmin} chains each stage's root relaxation from
    the previous stage's. Only optimal {e values} — which warm and cold
    solves always agree on — feed decisions that affect results;
    witness {e points} ({!integer_point}) and {!feasible}'s search for
    one run cold, so they do not depend on the warm-start machinery. *)

(** [integer_point p] finds any integer point, if one exists. [None]
    means "none exists" when the search completed, and "unknown" when
    the node budget ran out (see {!feasible} for a sound wrapper). *)
val integer_point :
  ?nonneg:bool ->
  ?budget:Linalg.Budget.t ->
  Poly.Polyhedron.t ->
  int array option

(** [feasible p]: does [p] contain an integer point?

    Exact when the branch-and-bound concludes within budget. If the
    budget (node cap or {!Linalg.Budget}) runs out, the answer falls
    back to rational feasibility, which errs on the side of reporting a
    dependence — conservative (never unsound) for the legality analyses
    built on top. *)
val feasible : ?budget:Linalg.Budget.t -> Poly.Polyhedron.t -> bool

(** [lexmin p objs] sequentially minimizes the affine objectives in
    [objs], fixing each to its optimum before the next (lexicographic
    minimization). Returns the objective values and a final optimal
    point, or [None] if infeasible / unbounded / inconclusive. A search
    stops after 20,000 nodes. When [budget] is given, every node charges
    {!Linalg.Budget.spend_node} and the underlying LPs charge pivots;
    exhaustion of either yields [None], never an exception. *)
val lexmin :
  ?nonneg:bool ->
  ?budget:Linalg.Budget.t ->
  Poly.Polyhedron.t ->
  Linalg.Vec.t list ->
  (Linalg.Q.t list * int array) option

(** [remove_redundant p] drops every inequality that is implied by the
    remaining constraints (exact rational LP test per row; equalities
    are kept). The result describes the same set with (often far) fewer
    rows - used to shrink Fourier-Motzkin output before it enters a
    larger ILP. *)
val remove_redundant : Poly.Polyhedron.t -> Poly.Polyhedron.t
