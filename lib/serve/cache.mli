(** The content-addressed cross-request cache of the scheduling daemon.

    Maps {!Fingerprint} keys to full certified response payloads. The
    payload is an immutable {!Obs.Json.t} tree served verbatim, so a
    hit's rendered bytes are identical to the miss response that
    created the entry. Eviction is LRU under a fixed capacity.

    Every operation is safe to call from concurrent domains (one lock
    per cache). Hit/miss/eviction tallies are authoritative here and
    mirrored into the calling domain's [Linalg.Counters] by
    {!sync_counters}. *)

type entry = {
  payload : Obs.Json.t;  (** the cached ["result"] object *)
  deps_fp : string;
      (** {!Fingerprint.deps_key} of the dependence set the cold solve
          derived — audit metadata, not part of the lookup key *)
  solve_ms : float;  (** wall time of the cold solve behind this entry *)
  mutable last_used : int;  (** LRU stamp, managed by the cache *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type t

(** @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> t

(** Counting lookup: bumps the hit or miss tally. *)
val find : t -> string -> entry option

(** Lookup without hit/miss accounting — for the server, which counts
    each request's outcome itself and re-probes after claiming a key
    for solving. *)
val find_quiet : t -> string -> entry option

(** Count a hit/miss that {!find_quiet} deliberately didn't. *)
val count_hit : t -> unit

val count_miss : t -> unit

(** Insert (no-op if the key is already present), evicting the LRU
    entry when at capacity. *)
val add : t -> string -> payload:Obs.Json.t -> deps_fp:string -> solve_ms:float -> unit

val stats : t -> stats

(** Mirror the tallies (plus the caller's request count) into
    [Linalg.Counters.serve_*]. *)
val sync_counters : t -> requests:int -> unit
