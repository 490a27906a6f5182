(** A model of the baseline "traditional compiler" (the paper's Intel
    compiler v13 with -O3 -parallel), as characterized in Sections 1
    and 5.3:

    - loop-nest granularity, no statement reordering;
    - {e pairwise} fusion of adjacent loop nests ([15]-style), only
      when the nests have the same dimensionality, conformable
      (identical) bounds, the fusion is legal {e without} any enabling
      transformation (no interchange, no shifting), and outer-loop
      parallelism is not lost — so nests of different dimensionality
      (gemsfdtd) or with non-conformable loop orders (tce) are never
      fused;
    - outer loops are parallelized conservatively: only rectangular
      nests (lu's triangular loops stay serial), without an
      outer-carried dependence, and not containing an inner-loop
      reduction (the gemver S2 nest stays serial, as observed in the
      paper). *)

type nest = {
  stmts : int list;  (** statement ids, program order *)
  depth : int;
  parallel : bool;  (** outer loop parallelized? *)
}

type result = {
  prog : Scop.Program.t;
  deps : Deps.Dep.t list;
  nests : nest list;  (** after pairwise fusion, in execution order *)
  sched : Pluto.Sched.t;
  ast : Codegen.Ast.node;  (** with icc's parallelization decisions *)
}

(** Run the model. The resulting schedule is validated with
    {!Pluto.Satisfy.check_legal}.
    @raise Pluto.Diagnostics.Error if the model produced an illegal
    schedule (a bug). *)
val run : ?param_floor:int -> Scop.Program.t -> result
