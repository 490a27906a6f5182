(** Typed evidence that a statement is a reduction.

    Produced by {!Reduction.detect}; consumed by the scheduling
    pipeline (to tag the covered self-dependences
    {!Deps.Dep.Reduction}) and independently re-derived by wisecheck
    when certifying [Parallel_reduction] marks. *)

type t = {
  stmt : int;  (** statement id *)
  op : Scop.Expr.binop;  (** the combining operator: Add, Mul, Min or Max *)
  acc : Scop.Access.t;  (** the accumulator access (write = read) *)
  covered : int list;
      (** indices (into the dependence list handed to the detector) of
          the true self-dependences the proof covers — exactly the
          edges legality may relax *)
  chain_levels : int list;
      (** original loop depths (0-based) carrying the accumulation
          chain — the loops that become [Parallel_reduction] *)
}

(** Spelling of the combining operator (["+"], ["*"], ["min"], ["max"]). *)
val op_name : t -> string

(** The fact about statement [id], if the detector proved one. *)
val for_stmt : t list -> int -> t option
