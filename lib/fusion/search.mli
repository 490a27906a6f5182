(** Exhaustive fusion-space enumeration — the mathematics of the
    paper's introduction, executable.

    Section 1 counts the space a fusion cost model must navigate: for
    [n] mutually independent SCCs there are [n!] orderings and, per
    ordering, [2^(n-1)] partitionings ("for any two consecutive
    statements, they can either belong to the same loop nest or not"),
    e.g. 24 for swim's S1-S3 and 90 x 32 = 2880 for S13-S18. This
    module enumerates exactly that space — topological orderings of the
    SCC condensation times cut masks — so the counts can be checked and
    small programs searched exhaustively, which is also how the paper
    frames the failure of iterative approaches [27-29] on large
    programs: the space explodes.

    All orderings are generated lazily-ish but materialized; keep this
    to programs with at most a dozen SCCs. *)

(** All topological orderings of the SCC condensation, as lists of SCC
    ids. For swim's S13-S18 subgraph this has exactly 90 elements. *)
val orderings : Deps.Ddg.t -> int array -> int list list

(** Number of fusion partitionings of one ordering of [k] SCCs:
    [2^(k-1)]. *)
val partitionings_per_ordering : int -> int

(** Size of the whole search space: [sum over orderings of 2^(k-1)]. *)
val space_size : Deps.Ddg.t -> int array -> int

type candidate = {
  order : int list;  (** SCC ids in pre-fusion order *)
  groups : int list;  (** group id per position *)
  result : Pluto.Scheduler.result;
  cycles : int;  (** machine-model cycles on 8 cores *)
}

(** [best prog] schedules and simulates (on {!Machine.Perf.default})
    every (ordering, partitioning) candidate — up to the first 64 — and
    returns them sorted by modeled cycles, best first. Exponential:
    small programs only. *)
val best : Scop.Program.t -> candidate list
