(* The content-addressed cross-request cache.

   Maps a Fingerprint key to the full certified response payload, held
   with its bytes: [add] renders the payload once into an
   Obs.Json.Rendered node, the miss answers with that node and every
   hit splices the same bytes into its envelope, so hit responses are
   byte-identical to the miss that created them and a hit renders no
   payload. Eviction is LRU over a capacity bound: each
   access stamps a monotonically increasing tick, and inserting past
   capacity evicts the smallest stamp. The scan is O(capacity), paid
   only on insertion of a new entry into a full cache — at serving
   capacities (hundreds to thousands of entries) this is noise next to
   the ILP solve that the insertion just performed.

   All operations take the cache lock, so any number of domains can hit
   concurrently. Tallies are kept under the same lock and read with
   [stats]. *)

type entry = {
  payload : Obs.Json.t;  (* the cached "result" object, rendered *)
  solve_ms : float;  (* wall time of the cold solve that built this entry *)
  mutable last_used : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    capacity;
    tbl = Hashtbl.create (min capacity 1024);
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Quiet lookup: no hit/miss accounting. The server counts each
   request's outcome itself, and re-probes with this after claiming a
   key for solving, where a second find for the same request must not
   double-count. *)
let find_quiet t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e ->
        t.tick <- t.tick + 1;
        e.last_used <- t.tick;
        Some e
      | None -> None)

let count_hit t = locked t (fun () -> t.hits <- t.hits + 1)
let count_miss t = locked t (fun () -> t.misses <- t.misses + 1)

let evict_lru t =
  (* called with the lock held *)
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, best) when best <= e.last_used -> ()
      | _ -> victim := Some (k, e.last_used))
    t.tbl;
  match !victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

(* renders before taking the lock, so hits on other domains never wait
   on a render *)
let add t key ~payload ~solve_ms =
  let payload = Obs.Json.rendered payload in
  locked t (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
        t.tick <- t.tick + 1;
        Hashtbl.add t.tbl key { payload; solve_ms; last_used = t.tick }
      end);
  payload

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })
