(** Reduction-detection static analysis (the wisereduce pass).

    Proves statements have the reduction shape
    [A[f(i)] = A[f(i)] ⊕ e] where:
    - [⊕] is associative and commutative ([+], [*], [min], [max]);
    - the accumulator is read-modify-write with {e identical}
      subscripts (one direct operand of the maximal [⊕]-chain);
    - the combined expression [e] never reads the accumulator array;
    - no other statement writes the accumulator cell mid-chain
      (no foreign output dependence carried by a chain loop).

    The proof is purely structural over the expression AST and the
    dependence set — no LP solves — so wisecheck re-derives it
    independently of the scheduler when certifying
    [Parallel_reduction] marks. *)

(** [detect prog deps] returns the proven facts plus one
    [reduction.detected] finding per fact and one [reduction.rejected]
    finding per near-miss (a statement that combines its own written
    array but fails the proof), with the exact reason under context key
    ["reason"], one of the stable codes ["non-associative-op"],
    ["subscript-mismatch"], ["accumulator-read"] or
    ["interleaved-writer"]. Statements that never
    touch their written array on the right-hand side produce no
    finding. *)
val detect :
  Scop.Program.t -> Deps.Dep.t list -> Reduction_info.t list * Finding.t list

(** Retag the dependences covered by the facts as
    {!Deps.Dep.Reduction} (list order preserved — indices in
    [Reduction_info.covered] refer to positions in this list). *)
val tag_deps : Reduction_info.t list -> Deps.Dep.t list -> Deps.Dep.t list

(** [covers fact d]: is [d] a self-dependence of the proven statement
    on its accumulator array — i.e. an edge the proof licenses
    relaxing? *)
val covers : Reduction_info.t -> Deps.Dep.t -> bool
