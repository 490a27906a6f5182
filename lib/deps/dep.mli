(** Exact data-dependence analysis.

    For every ordered pair of accesses to the same array, a dependence
    polyhedron is built over [src iterators ++ dst iterators ++ params]
    and split by satisfaction level in the original program: carried by
    the ℓ-th common loop, or loop-independent. Each non-empty piece
    (integer emptiness checked by branch-and-bound) becomes one
    dependence edge.

    Flow (RAW), anti (WAR) and output (WAW) dependences are the "true"
    edges of the DDG used for legality; input (RAR) dependences are
    computed separately because the paper's pre-fusion heuristic uses
    them for reuse (Section 2.3, drawback 2). *)

type kind = Flow | Anti | Output | Input

type level =
  | Carried of int  (** 0-based index of the carrying common loop *)
  | Independent  (** same common iteration, textual order *)

type tag =
  | Normal
  | Reduction
      (** A self-dependence covered by a proven reduction
          ([Analysis.Reduction]): legality may reorder the chain because
          the combining operator is associative and commutative, so the
          scheduler treats the edge as pre-satisfied and codegen marks
          the carrying loop [Parallel_reduction]. *)

type t = {
  src : int;  (** source statement id *)
  dst : int;  (** destination statement id *)
  kind : kind;
  src_access : Scop.Access.t;
  dst_access : Scop.Access.t;
  level : level;
  poly : Poly.Polyhedron.t;
      (** over [src iters (d1); dst iters (d2); params (np)] *)
  tag : tag;  (** always [Normal] out of [analyze]; retagged by callers *)
}

(** Is this a real DDG edge (not an input dependence)? *)
val is_true : t -> bool

(** [analyze ?param_floor program] computes all dependences,
    read-after-read ([Input]) ones included. [param_floor] (default 2)
    adds [p >= param_floor] for every program parameter when testing
    emptiness, standing for the "sufficiently large problem size"
    assumption. *)
val analyze : ?param_floor:int -> Scop.Program.t -> t list

(** Dependence-polyhedron layout helpers. *)

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
