(** Independent race certification of generated loop ASTs.

    For every [Loop] node, the checker rebuilds — from the dependence
    polyhedra and the schedule rows alone, without consulting
    [Pluto.Satisfy.row_class] — the cross-iteration conflict system of
    each true dependence between the loop's statements: the dependence
    polyhedron intersected with [δ_k = 0] for every schedule row [k]
    outside (above) the loop's row, then asked whether two {e distinct}
    iterations of the loop can be dependent ([δ_r ≥ 1] or [δ_r ≤ −1],
    exact integer emptiness via branch-and-bound).

    A loop marked [Parallel] with a feasible conflict system is racy
    generated code (error). A loop marked [Parallel_reduction] is held
    to the same standard {e unless} every feasible conflict is a
    self-dependence covered by one of the caller's independently
    derived reduction proofs ([facts]) — then the loop is certified
    "race-free up to reduction reassociation" (info); any uncovered
    conflict behind the mark is still a [race.parallel] error. A loop
    marked [Forward] or [Sequential] whose every live dependence has an
    {e infeasible} conflict system is provably race-free — parallelism
    the pipeline left on the table (warning). *)

(** Check every loop of the AST; findings in AST pre-order. [facts]
    (default none) are the reduction proofs used to judge
    [Parallel_reduction] marks — pass proofs re-derived via
    {!Reduction.detect}, never the scheduler's own tags. *)
val check :
  ?param_floor:int ->
  ?facts:Reduction_info.t list ->
  Scop.Program.t ->
  Deps.Dep.t list ->
  Pluto.Sched.t ->
  Codegen.Ast.node ->
  Finding.t list
