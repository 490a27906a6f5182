(* Per-fingerprint circuit breaker: a TTL'd negative cache over solve
   failures.

   The content-addressed cache remembers *successes*; this module
   remembers *failures*. A request whose solve raises (or fails with a
   typed diagnostic) is deterministic in its content, so retrying the
   same fingerprint is pure waste: after [threshold] consecutive
   failures the breaker opens and further requests for that fingerprint
   are answered with a typed ["breaker"] error — without claiming the
   key or starting a solve — until [ttl_s] elapses. After the TTL the breaker goes
   half-open: one probe solve is allowed through, a success closes the
   breaker, another failure re-opens it immediately.

   All state sits under one mutex; operations are O(1) hashtable work,
   never held across a solve. *)

type entry = {
  mutable failures : int;  (* consecutive failures for this key *)
  mutable opened_at : float option;  (* Clock.now when the breaker opened *)
}

type t = {
  threshold : int;
  ttl_s : float;
  tbl : (string, entry) Hashtbl.t;
  m : Mutex.t;
  mutable trips : int;  (* total times any key's breaker opened *)
  mutable rejects : int;  (* requests turned away while open *)
}

type verdict =
  | Closed
  | Open of float  (* seconds until the half-open probe is allowed *)

let create ~threshold ~ttl_s =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  {
    threshold;
    ttl_s;
    tbl = Hashtbl.create 64;
    m = Mutex.create ();
    trips = 0;
    rejects = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Admission check, called before a cold solve. *)
let check t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> Closed
      | Some e -> (
        match e.opened_at with
        | None -> Closed
        | Some t0 ->
          let elapsed = Linalg.Clock.now () -. t0 in
          if elapsed < t.ttl_s then begin
            t.rejects <- t.rejects + 1;
            Open (t.ttl_s -. elapsed)
          end
          else begin
            (* TTL expired: half-open. Let one probe through, but keep
               the failure run one short of the threshold so a failing
               probe re-opens immediately. *)
            e.opened_at <- None;
            e.failures <- t.threshold - 1;
            Closed
          end))

(* [true] when this failure just opened the breaker. *)
let record_failure t key =
  locked t (fun () ->
      let e =
        match Hashtbl.find_opt t.tbl key with
        | Some e -> e
        | None ->
          let e = { failures = 0; opened_at = None } in
          Hashtbl.add t.tbl key e;
          e
      in
      e.failures <- e.failures + 1;
      if e.failures >= t.threshold && e.opened_at = None then begin
        e.opened_at <- Some (Linalg.Clock.now ());
        t.trips <- t.trips + 1;
        true
      end
      else false)

let record_success t key = locked t (fun () -> Hashtbl.remove t.tbl key)

let open_count t =
  locked t (fun () ->
      let now = Linalg.Clock.now () in
      Hashtbl.fold
        (fun _ e acc ->
          match e.opened_at with
          | Some t0 when now -. t0 < t.ttl_s -> acc + 1
          | _ -> acc)
        t.tbl 0)

let trips t = locked t (fun () -> t.trips)
let rejects t = locked t (fun () -> t.rejects)
