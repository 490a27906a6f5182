(** Per-domain performance counters for the exact-arithmetic pipeline.

    Each domain owns one record of counters and stage timers in
    domain-local storage: the hot paths bump a plain slot of the
    calling domain's record ({!incr}), and {!reset}, {!get},
    {!all_counters}, {!stage_times}, {!time} and {!pp} all act on that
    record only. A single-domain program (the CLI, the bench harness)
    therefore sees one set of counters; solves running on different
    domains never mix their counts. {!scoped} gives one callback a
    fresh record of its own — the serving daemon runs every cold solve
    that way. The bench harness and the CLI read these to report where
    the optimization time goes, and the CI benchmark job serializes
    them into [BENCH_pipeline.json].

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
    overflowed, the other operand was already boxed, or
    {!Bigint.chaos_big_path} is set. *)
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
    objective vector per hyperplane level; no branching). *)
val lp_relax_solves : counter

(** Cluster recovery rounds: one per dependence-connected statement
    cluster whose rational solution was scaled to an integral
    hyperplane. *)
val cluster_rounds : counter

(** Levels the clustering could not certify (rational optimum
    unscalable or scaled row not provably legal) and that were handed
    back to the ILP engine. *)
val dfp_fallbacks : counter

(** {2 Serving (wiseserve) counters}

    Requests handled by the scheduling daemon and the traffic of its
    content-addressed cross-request cache. These only mirror tallies the
    server and its cache own: every request re-syncs them into the
    calling domain's record, so another domain's copy may lag. Read the
    server's own accessors for totals. *)

val serve_requests : counter
val serve_cache_hits : counter
val serve_cache_misses : counter
val serve_cache_evictions : counter

(** Requests shed by admission control (typed ["overloaded"]). *)
val serve_shed : counter

(** Requests whose escaped exception was caught by the serve firewall. *)
val serve_recovered : counter

(** Circuit-breaker trips (a fingerprint's failure run crossed the
    threshold and opened) and rejects (requests answered ["breaker"]
    while open). *)
val serve_breaker_trips : counter

val serve_breaker_rejects : counter

(** [time stage f] runs [f ()] and adds its wall-clock duration to the
    accumulator for [stage] (even if [f] raises). Timers are
    {e exclusive}: when stages nest, the inner stage's time is
    subtracted from the enclosing stage, so stage times are disjoint
    and sum to at most the outermost wall time. When the {!Obs.Trace}
    sink is on, each stage additionally records a span (category
    ["stage"]), so traces can re-derive these accumulators. *)
val time : string -> (unit -> 'a) -> 'a

(** Install a callback invoked with each completed stage's name and
    {e exclusive} duration in seconds (same accounting as
    {!stage_times}). The serving daemon uses this to feed per-stage
    latency histograms without [linalg] depending on the metrics
    registry. The default is a no-op; installation is atomic, so it is
    safe against concurrent solves. *)
val set_stage_observer : (string -> float -> unit) -> unit

(** Accumulated (stage, seconds) pairs, in first-use order. *)
val stage_times : unit -> (string * float) list

(** All counters as (name, value) pairs, including zeros. *)
val all_counters : unit -> (string * int) list

(** Reset every counter and timer of the calling domain to zero. *)
val reset : unit -> unit

(** [scoped f] runs [f ()] with a fresh, zeroed record installed for
    the calling domain and restores the caller's record when [f]
    returns or raises. Everything [f] counts or times is dropped unless
    [f] reads it itself (with {!all_counters} or {!stage_times}). *)
val scoped : (unit -> 'a) -> 'a

val pp : Format.formatter -> unit -> unit
