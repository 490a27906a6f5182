(** The daemon's instrument bundle over {!Obs.Metrics}: per-outcome
    counters, latency histograms split by cache class, per-engine
    solve and per-stage pipeline latency, and callback-sampled
    cache/breaker/backlog gauges, scraped by the ["metrics"] protocol
    op in Prometheus text format.

    Classification happens in exactly one place — from the response
    envelope the client receives — so scrape totals reconcile with the
    wire by construction:
    [requests_total == sum outcomes + sum ops].

    Unlike [Linalg.Counters] (a fresh record per cold solve, dropped
    with a faulted solve), these instruments are never reset: totals
    are monotone across recoveries. *)

type t

(** Callbacks sampling tallies that are authoritative elsewhere (cache
    lock, breaker table, server atomics); invoked at scrape time and
    must be monotone where exposed as counters. *)
type sources = {
  cache_stats : unit -> Cache.stats;
  breaker_open : unit -> int;
  breaker_trips : unit -> int;
  breaker_rejects : unit -> int;
  inflight : unit -> int;
  queued : unit -> int;
  shed_total : unit -> int;
  recovered_total : unit -> int;
  uptime_s : unit -> float;
}

val create : ?enabled:bool -> sources -> t
(** [~enabled:false] mints no-op instruments: the whole record path
    costs one bool load per request. *)

val enabled : t -> bool

val record_response : t -> wall_us:float -> Obs.Json.t -> string
(** Count one answered request (requests total, outcome/op, duration
    histogram by cache class, degraded-by-rung, overrun) and return
    the classified label — also used by the access log. *)

val record_solve : t -> engine_used:string -> solve_ms:float -> unit
(** Feed one cold solve into [wisefuse_solve_duration_us{engine=…}]. *)

val observe_stage : t -> stage:string -> seconds:float -> unit
(** Feed one completed pipeline stage (exclusive time) into
    [wisefuse_stage_duration_us{stage=…}]; wired to
    [Linalg.Counters.set_stage_observer]. *)

val exposition : t -> string
(** Prometheus text exposition (a comment line when disabled). *)

val requests_total : t -> int
val outcome_total : t -> string -> int
val op_total : t -> string -> int
val outcome_totals : t -> (string * int) list
val op_totals : t -> (string * int) list

val snapshot : t -> (string * int) list
(** The compact snapshot carried by ["health"] envelopes: requests,
    hit, coalesced, cold, degraded, errors, ops. *)
