(** The content-addressed cross-request cache of the scheduling daemon.

    Maps {!Fingerprint} keys to full certified response payloads. An
    entry holds its payload with the payload's bytes, rendered once by
    {!add} into an {!Obs.Json.Rendered} node: a hit's envelope splices
    those bytes, so it renders no payload and is byte-identical to the
    miss response that created the entry. Eviction is LRU under a fixed
    capacity.

    A second index maps request forms to entries. A form is the
    server's canonical spelling of the request fields that determine
    the key (kernel, resolved size, model, engine, reductions), so a
    repeated request is answered by {!find_form} without building or
    fingerprinting its program. A form lives exactly as long as its
    entry: {!find} and {!add} record it on the entry, and evicting the
    entry drops every form recorded on it, so the index has no capacity
    of its own. Forms with equal content share one entry.

    Every operation is safe to call from concurrent domains and takes
    the one cache lock once. The hit/miss/eviction tallies live here;
    read them with {!stats}. *)

type entry = {
  payload : Obs.Json.t;
      (** the cached ["result"] object, a [Rendered] node *)
  solve_ms : float;  (** wall time of the cold solve behind this entry *)
  mutable last_used : int;  (** LRU stamp, managed by the cache *)
  mutable forms : string list;
      (** request forms indexed to this entry, managed by the cache *)
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

(** [find_form t form] is the key and entry indexed under request form
    [form]. A hit stamps the entry for LRU and counts the hit; a miss
    counts nothing (the request goes on to {!find} by key). *)
val find_form : t -> string -> (string * entry) option

(** [find t ~form key] is the entry under [key]. A hit stamps it,
    counts the hit and indexes [form] to it; a miss counts nothing,
    since the request then waits for or runs a solve and is counted by
    what it finally answers ({!count_miss} after a solve). *)
val find : t -> form:string -> string -> entry option

(** Lookup by key that stamps the entry but counts nothing and indexes
    no form: for callers outside the request path, such as a benchmark
    reading an entry's [solve_ms]. *)
val find_quiet : t -> string -> entry option

(** Count a request answered by a solve, stored or not. *)
val count_miss : t -> unit

(** Render [payload] once ({!Obs.Json.rendered}) and insert it under
    [key] with [form] indexed to it, evicting the LRU entry (and its
    forms) when at capacity. If [key] is present, its entry is kept and
    only [form] is indexed to it. Returns the rendered node, which the
    miss answers with. *)
val add :
  t -> string -> form:string -> payload:Obs.Json.t -> solve_ms:float -> Obs.Json.t

val stats : t -> stats
