(** Domain-safe metrics: sharded counters and log-linear latency
    histograms with a lock-free [Atomic] hot path, plus counters and
    gauges sampled by callback, merged at scrape time into a Prometheus
    text-format exposition.

    Writers touch only their own domain's shard (one
    [Atomic.fetch_and_add], no mutex); a scrape folds a histogram's
    shards with {!Buckets.merge}, pointwise addition, which is
    associative, commutative and loss-free — property-tested in
    [test_metrics].  Instruments minted
    by a registry created with [~enabled:false] early-return after a
    single immutable bool load, keeping the disabled path at null-sink
    cost. *)

(** Pure log-linear bucket arithmetic (HdrHistogram-style: [sub]
    linear sub-buckets per power of two), exposed for boundary and
    merge property tests. *)
module Buckets : sig
  val sub : int
  (** Linear sub-buckets per octave (8). *)

  val count : int
  (** Total buckets including underflow ([0]) and overflow
      ([count - 1]). *)

  val underflow : int
  val overflow : int

  val index : int -> int
  (** [index v] is the bucket holding value [v].  Negative values go
      to [underflow], values >= 2^30 to [overflow]; nothing is ever
      dropped. *)

  val upper : int -> int
  (** Inclusive upper edge of a bucket: the exact Prometheus [le]
      boundary.  [upper underflow = -1]; [upper overflow = max_int]
      (rendered [+Inf]). *)

  val merge : int array -> int array -> int array
  (** Pointwise sum — the shard merge.  Associative, commutative,
      loss-free. *)
end

type counter
type histogram
type registry

val create : ?enabled:bool -> unit -> registry
(** Fresh registry; [~enabled:false] makes every instrument it mints a
    no-op (zero-cost disabled path). *)

val enabled : registry -> bool

val counter :
  registry -> name:string -> help:string ->
  ?labels:(string * string) list -> unit -> counter
(** Register a monotone counter series.  Registering several series
    under the same [name] (with distinct [labels]) forms one family;
    [help] from the first registration wins. *)

val counter_fn :
  registry -> name:string -> help:string ->
  ?labels:(string * string) list -> (unit -> int) -> unit
(** Counter sampled by callback at scrape time — for values already
    tracked elsewhere (cache hits, breaker trips).  The callback must
    be monotone and safe to call from the scraping domain. *)

val gauge_fn :
  registry -> name:string -> help:string ->
  ?labels:(string * string) list -> (unit -> int) -> unit

val histogram :
  registry -> name:string -> help:string ->
  ?labels:(string * string) list -> unit -> histogram

val inc : ?n:int -> counter -> unit
(** Lock-free increment on the caller's domain shard. *)

val counter_value : counter -> int
(** Merged total across shards. *)

val observe : histogram -> int -> unit
(** Record one observation (we feed microseconds).  Lock-free. *)

val exposition : registry -> string
(** Prometheus text format 0.0.4: [# HELP] / [# TYPE] per family, then
    one sample line per series; histograms render cumulative sparse
    [le] buckets plus [_sum] / [_count]. *)
