(** Algorithm 1 of the paper: finding a good pre-fusion schedule.

    The pre-fusion schedule is an ordering of the SCCs of the DDG that
    later guides which SCCs end up fused (Section 4.1). The ordering
    criteria are:

    - {b Constraint}: precedence — an SCC may only be scheduled once
      all SCCs it depends on are scheduled;
    - {b Heuristic 1}: SCCs that allow data reuse (through true {e or
      input/RAR} dependences) {e and have the same dimensionality} are
      ordered consecutively;
    - {b Heuristic 2}: SCCs are considered in original program order.

    Deviation from the paper's listing: the paper's outer loop seeds a
    new cluster at the first unvisited statement in program order
    without a precedence check; for programs with textually-backward
    carried dependences that could produce a non-topological order, so
    the seed here is the first unvisited statement whose SCC is ready
    (all external predecessors visited). For the paper's benchmarks
    the two coincide. *)

(** [order prog ddg scc_of] returns the SCC ids in pre-fusion order:
    the clusters grown by the algorithm, concatenated. Each cluster
    (the [fusable] set of one outer iteration) is recorded as
    ["prefuse.seed"] and ["prefuse.join"] trace instants carrying its
    number; the actual fusion partitions additionally depend on the
    scheduler's cuts. Suitable as
    {!Pluto.Scheduler.config.order_sccs}. *)
val order : Scop.Program.t -> Deps.Ddg.t -> int array -> int list
