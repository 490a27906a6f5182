(** The Data Dependence Graph and its strongly connected components.

    Vertices are statement ids; edges are the true (flow/anti/output)
    dependences. Input dependences are carried alongside for the reuse
    heuristics but do not create edges (Section 2.3 of the paper: they
    would restrict parallelism).

    Both Kosaraju's algorithm (cited by the paper, via Sharir) and
    Tarjan's are provided; tests check they agree. *)

type t = {
  n : int;  (** number of statements *)
  succ : int list array;  (** true-dependence successors, deduplicated *)
  pred : int list array;
  deps : Dep.t list;  (** every dependence, including input *)
}

val build : Scop.Program.t -> Dep.t list -> t

(** True dependences only. *)
val true_deps : t -> Dep.t list

(** {1 Strongly connected components}

    Both functions return an array mapping statement id to SCC id,
    with SCC ids numbered in a topological order of the condensation
    (every edge goes from a lower to a higher id). *)

val scc_kosaraju : t -> int array
val scc_tarjan : t -> int array

(** [components scc_of] groups statement ids by SCC id, in id order. *)
val components : int array -> int list array

(** Number of SCCs. *)
val scc_count : int array -> int

val pp : Format.formatter -> t -> unit

(** Graphviz dot rendering: solid edges for true dependences (colored
    by kind), dashed for input dependences; one node per statement,
    labeled with its name and clustered by SCC. *)
val to_dot : Scop.Program.t -> t -> string
