(** Per-domain performance counters for the exact-arithmetic pipeline,
    and the one stage timer.

    Each domain owns one record of counters in domain-local storage:
    the hot paths bump a plain slot of the calling domain's record
    ({!incr}), and {!reset}, {!get} and {!all_counters} act on that
    record only. A single-domain program (the CLI, the bench harness)
    therefore sees one set of counters; solves running on different
    domains never mix their counts. {!scoped} gives one callback a
    fresh record of its own — the serving daemon runs every cold solve
    that way. The CLI ([--stats]), serve payloads and wisebench's
    traced runs read these to report what work the optimization did.

    Stage times are not kept here: {!time} hands each stage's
    exclusive duration to the process-wide stage observer
    ({!set_stage_observer}), and the consumer decides what to keep.

    The exact-arithmetic counters ({!promotions}, {!demotions}) move
    only where a {!Bigint} crosses between its immediate native-int
    form and its boxed bignum form; the allocation-free native paths of
    {!Bigint} and {!Q} touch no counter. *)

(** A named counter: one slot of a domain's record. *)
type counter

(** Add one to the calling domain's [counter]. *)
val incr : counter -> unit

val get : counter -> int
val set : counter -> int -> unit

(** Count of native {!Bigint} operands that an operation had to
    promote to the boxed sign + magnitude form: a native result
    overflowed, the other operand was already boxed, or the
    {!Chaos.hooks}[.big_path] test hook is set. *)
val promotions : counter

(** Count of boxed results that fit a native int and folded back into
    an immediate. *)
val demotions : counter

val lp_pivots : counter
val lp_solves : counter

(** Branch-and-bound entries (one per ILP problem). *)
val ilp_solves : counter

(** Branch-and-bound tree nodes (one LP relaxation each). *)
val bb_nodes : counter

(** {2 Incremental-engine counters} *)

(** LP re-solves that started from a saved basis (dual-simplex
    constraint additions and primal objective swaps) and completed
    without falling back to a cold solve. *)
val warm_starts : counter

(** Warm re-solves that had to fall back to a cold two-phase solve
    (basis incompatibility or a dual-simplex iteration cap). *)
val warm_fallbacks : counter

(** Dual-simplex pivots performed by warm re-solves. The total simplex
    effort of a run is [lp_pivots + dual_pivots]. *)
val dual_pivots : counter

(** Farkas-system memoization: structurally identical dependence
    polyhedra share one multiplier elimination ({!Pluto.Farkas}). *)
val farkas_cache_hits : counter

val farkas_cache_misses : counter

(** {2 Static-analysis (wisecheck) counters}

    One bump per finding emitted by [Analysis.Wisecheck.certify],
    keyed by severity. *)

val findings_error : counter
val findings_warning : counter
val findings_info : counter

(** {2 Reduction (wisereduce) counters}

    Facts proven by the reduction detector
    ([Analysis.Reduction.detect]) and [Parallel_reduction] loops
    certified "race-free up to reduction reassociation" by wisecheck. *)

val reductions_detected : counter
val reductions_certified : counter

(** {2 LP-dfp engine counters}

    The decoupled scheduling engine (per-level LP relaxation +
    dimension-matching clustering, after pluto-lp-dfp) solves no
    integer programs on its happy path; these separate its work from
    the branch-and-bound counters above. *)

(** Pure-LP lexicographic stages solved by the lp-dfp engine (one per
    objective vector per hyperplane level; no branching), plus one per
    feasibility probe of a bisected fallback-cut chain. *)
val lp_relax_solves : counter

(** Cluster recovery rounds: one per dependence-connected statement
    cluster whose rational solution was scaled to an integral
    hyperplane. *)
val cluster_rounds : counter

(** Levels the clustering could not certify (rational optimum
    unscalable or scaled row not provably legal) and that were handed
    back to the ILP engine. *)
val dfp_fallbacks : counter

(** [time stage f] runs [f ()] and hands the stage observer
    ({!set_stage_observer}) [stage] and its {e exclusive} wall-clock
    duration in seconds (even if [f] raises): when stages nest on one
    domain, the inner stage's time is subtracted from the enclosing
    stage, so stage times are disjoint and sum to at most the outermost
    wall time. When the {!Obs.Trace} sink is on, each stage also
    records a span (category ["stage"]), whose exclusive self-times
    match the observed ones. *)
val time : string -> (unit -> 'a) -> 'a

(** Install the callback {!time} invokes with each completed stage's
    name and exclusive duration in seconds. The serving daemon feeds
    per-stage latency histograms with it, without [linalg] depending on
    the metrics registry, and the CLI's [--stats] sums it per stage.
    The default is a no-op; installation is atomic, so it is safe
    against concurrent solves. *)
val set_stage_observer : (string -> float -> unit) -> unit

(** All counters as (name, value) pairs, including zeros. The eight
    [serve_*] names have no handle and always read 0; the serving
    daemon's own accessors hold its tallies. *)
val all_counters : unit -> (string * int) list

(** Reset every counter of the calling domain to zero. *)
val reset : unit -> unit

(** [scoped f] runs [f ()] with a fresh, zeroed record installed for
    the calling domain and restores the caller's record when [f]
    returns or raises. Everything [f] counts is dropped unless [f]
    reads it itself (with {!all_counters}). *)
val scoped : (unit -> 'a) -> 'a
