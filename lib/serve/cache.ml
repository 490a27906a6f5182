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

   A second index maps request forms to entries. A form is the server's
   canonical spelling of the request fields the key is a pure function
   of (kernel, size, model, engine, reductions), so a repeated request
   finds its entry without building the program or fingerprinting it.
   Each entry lists the forms indexed to it and eviction drops them
   with it: the index holds nothing the content table does not, and has
   no capacity of its own. Several forms may share one entry, since the
   content table stays the address.

   All operations take the cache lock, each exactly once, so any number
   of domains can hit concurrently. Tallies are kept under the same
   lock and read with [stats]. *)

type entry = {
  payload : Obs.Json.t;  (* the cached "result" object, rendered *)
  solve_ms : float;  (* wall time of the cold solve that built this entry *)
  mutable last_used : int;
  mutable forms : string list;  (* request forms indexed to this entry *)
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
  by_form : (string, string * entry) Hashtbl.t;  (* form -> key, entry *)
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
    by_form = Hashtbl.create (min capacity 1024);
    lock = Mutex.create ();
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* the helpers below run with the lock held *)

let touch t e =
  t.tick <- t.tick + 1;
  e.last_used <- t.tick

let index t ~form key e =
  if not (Hashtbl.mem t.by_form form) then begin
    e.forms <- form :: e.forms;
    Hashtbl.add t.by_form form (key, e)
  end

let lookup t key =
  let found = Hashtbl.find_opt t.tbl key in
  Option.iter (touch t) found;
  found

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, best) when best.last_used <= e.last_used -> ()
      | _ -> victim := Some (k, e))
    t.tbl;
  match !victim with
  | Some (k, e) ->
    Hashtbl.remove t.tbl k;
    List.iter (Hashtbl.remove t.by_form) e.forms;
    t.evictions <- t.evictions + 1
  | None -> ()

let find_form t form =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.by_form form with
      | Some (_, e) as found ->
        touch t e;
        t.hits <- t.hits + 1;
        found
      | None -> None)

let find t ~form key =
  Mutex.protect t.lock (fun () ->
      let found = lookup t key in
      Option.iter
        (fun e ->
          t.hits <- t.hits + 1;
          index t ~form key e)
        found;
      found)

(* Quiet lookup: no hit accounting and no form. *)
let find_quiet t key = Mutex.protect t.lock (fun () -> lookup t key)

let count_miss t = Mutex.protect t.lock (fun () -> t.misses <- t.misses + 1)

(* renders before taking the lock, so hits on other domains never wait
   on a render *)
let add t key ~form ~payload ~solve_ms =
  let payload = Obs.Json.rendered payload in
  Mutex.protect t.lock (fun () ->
      let e =
        match Hashtbl.find_opt t.tbl key with
        | Some e -> e
        | None ->
          if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
          let e = { payload; solve_ms; last_used = 0; forms = [] } in
          touch t e;
          Hashtbl.add t.tbl key e;
          e
      in
      index t ~form key e);
  payload

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.tbl;
        capacity = t.capacity;
      })
