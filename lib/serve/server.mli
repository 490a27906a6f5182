(** wiseserve: the long-lived fusion-as-a-service scheduling daemon.

    Line-delimited JSON requests (stdio or a Unix socket) are keyed by
    {!Fingerprint} and answered from the content-addressed {!Cache}; a
    miss runs the full certified pipeline (optimize under a nested
    trace recording + wisecheck) and stores the payload for every later
    request with the same content. A repeated request (same kernel,
    resolved size, model, engine and reductions flag) is answered from
    the cache's request-form index without building its program or
    computing its key.

    Transports: stdio and every socket connection run the same line
    loop, which answers each line in request order. Stdio runs it on
    the calling domain; the socket server runs it on a pool of
    [config.domains] workers, one connection per worker at a time.

    Concurrency: requests are served concurrently by any number of
    OCaml 5 domains. A cold solve runs on the domain that received it,
    with its own counter record ({!Linalg.Counters.scoped}) and the
    Farkas memo its pipeline run owns ({!Fusion.Resilient.optimize}),
    so solves of different keys run in parallel and the per-request
    counter deltas in each response are exact — hits provably perform
    zero LP pivots and zero B&B nodes. Concurrent misses for the same
    key coalesce into one solve: later requests wait for the first and
    leave with its cache entry, or solve the key themselves if the
    first stored nothing.

    Hardening: every request solves under a fresh deadline budget
    (client ["deadline_ms"], server default/cap) and degrades down the
    resilience ladder instead of holding its key indefinitely; degraded
    results are served (["uncached"]) but never stored. Exceptions
    escaping a solve are firewalled — the solve's counter record and
    memo are dropped with it, its key is released, and the client
    gets a typed ["internal"] error; repeated failures per fingerprint
    trip a TTL'd circuit breaker ({!Breaker}). Admission control sheds
    schedule requests (["overloaded"]) past [config.max_pending];
    oversized lines answer ["oversized"] without being buffered in
    full;
    SIGTERM/SIGINT drain and exit 0.

    Trace spans (category ["serve"]): [serve.request] wraps each
    schedule request, [serve.cache-hit] marks hits (with the key),
    [serve.schedule] wraps each cold solve; instants [serve.shed],
    [serve.breaker] (open/reject) and [serve.recovered] mark the
    hardening paths. All null-sink-guarded. *)

type config = {
  domains : int;
      (** socket worker pool size: connections served concurrently.
          Stdio always runs on the calling domain. *)
  cache_capacity : int;
  max_pending : int;
      (** admission high-water mark on the pending-work gauge
          (in-flight + queued); schedule requests past it are shed with
          a typed ["overloaded"] error *)
  max_line_bytes : int;
      (** request lines longer than this answer ["oversized"] and are
          never buffered in full *)
  default_deadline_ms : int option;
      (** solve deadline applied when the client sends none;
          [None] = unlimited *)
  max_deadline_ms : int;  (** cap on client-requested deadlines *)
  breaker_threshold : int;
      (** consecutive same-fingerprint failures that open the breaker *)
  breaker_ttl_s : float;  (** how long an open breaker rejects *)
  metrics : bool;
      (** mint live {!Telemetry} instruments, scraped by the
          ["metrics"] op; [false] mints no-op instruments (the
          measured zero-cost disabled path) *)
  trace_sample : int;
      (** record a span trace for every Nth answered line (0 =
          never); sampled envelopes gain ["trace_id"] and a compact
          ["trace"] summary *)
  access_log : string option;
      (** JSONL access log path, written by a dedicated writer domain
          (one line per answered request); [None] = off *)
}

val default_config : config
(** 1 socket worker, 512 cache entries, 64 pending, 1 MiB lines, 10 s default
    deadline (300 s cap), breaker 3 failures / 30 s TTL, metrics on,
    no trace sampling, no access log. *)

type t

val create : ?config:config -> unit -> t
(** Builds the cache, breaker and telemetry registry, opens the access
    log (raising [Sys_error] if its path cannot be opened), and — when
    [config.metrics] — installs the process-wide stage observer
    ([Linalg.Counters.set_stage_observer]), so the most recently
    created metrics-enabled server owns per-stage latency. *)

val cache : t -> Cache.t
val breaker : t -> Breaker.t
val telemetry : t -> Telemetry.t

(** Schedule requests shed by admission control so far. *)
val shed : t -> int

(** Exceptions caught by the solve firewall so far. *)
val recovered : t -> int

(** Flush and close the access log (idempotent; no-op without one).
    Every serving loop calls it on exit; tests driving {!handle_line}
    directly call it before reading the log file. *)
val close : t -> unit

(** [handle_line t line] handles one request line and returns the
    response line (no trailing newline), or [None] for blank input.
    Never raises — internal failures become ["internal"] error
    envelopes. Safe to call from concurrent domains; this is also the
    entry point the tests and the bench harness drive directly. *)
val handle_line : t -> string -> string option

(** Serve requests from stdin to stdout on the calling domain, one
    response line per request line in request order, until EOF or a
    shutdown request ([config.domains] is not used). SIGTERM/SIGINT
    exit 0 (the blocking stdin read cannot observe a drain flag). *)
val serve_stdio : t -> unit

(** Listen on a Unix domain socket ([path] is created, and removed on
    shutdown), serving each accepted connection to EOF on a pool of
    [config.domains] workers. SIGPIPE is ignored; SIGTERM/SIGINT drain:
    in-flight requests finish, parked connection readers are shut down,
    the socket is unlinked and the process exits 0. A second signal or
    shutdown op during the drain is tolerated. *)
val serve_socket : t -> path:string -> unit
