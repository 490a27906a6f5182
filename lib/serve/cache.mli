(** The content-addressed cross-request cache of the scheduling daemon.

    Maps {!Fingerprint} keys to full certified response payloads. An
    entry holds its payload with the payload's bytes, rendered once by
    {!add} into an {!Obs.Json.Rendered} node: a hit's envelope splices
    those bytes, so it renders no payload and is byte-identical to the
    miss response that created the entry. Eviction is LRU under a fixed
    capacity.

    Every operation is safe to call from concurrent domains (one lock
    per cache). The hit/miss/eviction tallies live here; read them with
    {!stats}. *)

type entry = {
  payload : Obs.Json.t;
      (** the cached ["result"] object, a [Rendered] node *)
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

(** Lookup without hit/miss accounting: the server counts each
    request's outcome itself ({!count_hit}, {!count_miss}) and
    re-probes after claiming a key for solving. *)
val find_quiet : t -> string -> entry option

(** Count a hit/miss that {!find_quiet} deliberately didn't. *)
val count_hit : t -> unit

val count_miss : t -> unit

(** Render [payload] once ({!Obs.Json.rendered}) and insert it (no-op
    if the key is already present), evicting the LRU entry when at
    capacity. Returns the rendered node, which the miss answers with. *)
val add : t -> string -> payload:Obs.Json.t -> solve_ms:float -> Obs.Json.t

val stats : t -> stats
