(** Reuse-distance (LRU stack distance) analysis of memory traces.

    The paper's whole argument is about {e data reuse}: fusion is good
    when it shortens the distance (in distinct cache lines touched)
    between successive accesses to the same data. This module measures
    exactly that, independently of any particular cache geometry: a
    reuse distance below a cache's capacity (in lines) is a guaranteed
    hit in a fully-associative LRU cache of that size.

    Distances are computed with the classic Fenwick-tree
    last-occurrence algorithm in O(n log n). *)

type summary = {
  accesses : int;  (** trace length *)
  cold : int;  (** first-touches (infinite distance) *)
  histogram : (int * int) list;
      (** (upper bound, count) per power-of-two bucket: bucket [b]
          counts finite distances in ((b/2), b]; the first bucket is
          distance 0 (same line re-touched immediately) *)
  mean_finite : float;  (** mean over finite distances *)
  within : int -> int;
      (** [within c] = number of accesses with finite distance < [c] -
          guaranteed LRU hits in a [c]-line cache *)
}

(** [of_trace ?line_bytes trace] computes the summary for a byte-address
    trace (default line: 64 bytes). *)
val of_trace : ?line_bytes:int -> int list -> summary

(** [capture prog ast ~params] runs the AST and records its trace. *)
val capture : Scop.Program.t -> Codegen.Ast.node -> params:int array -> int list
