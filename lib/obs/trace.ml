type phase = B | E | I

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;
  args : (string * Json.t) list;
}

(* Per-domain sinks.  Each domain records into its own state (a
   mutable record held in domain-local storage), so emission never
   takes a lock and two domains capturing concurrently cannot clobber
   or interleave each other's events — the failure mode of the old
   single global sink, whose [enabled]/[sink] refs were plain
   cross-domain-mutated cells.

   The one piece of shared state is [live]: an atomic count of domains
   whose sink is currently enabled.  [on ()] — the only check
   instrumented hot paths pay when tracing is off — is a single
   [Atomic.get]; when it reads 0 every emit returns before touching
   domain-local storage. *)

type state = {
  mutable enabled : bool;
  mutable sink : event list; (* reversed; emission is allocation-only *)
  mutable t0 : float;
  mutable last_ts : float;
}

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { enabled = false; sink = []; t0 = 0.0; last_ts = 0.0 })

let cur () = Domain.DLS.get key

(* number of domains with an enabled sink *)
let live = Atomic.make 0

let on () = Atomic.get live > 0

(* The timestamp source, swappable so [Linalg.Clock] can install the
   monotonic clock without [obs] depending on it. *)
let clock : (unit -> float) Atomic.t = Atomic.make Unix.gettimeofday
let set_clock f = Atomic.set clock f

(* Microseconds since [t0], clamped non-decreasing per domain:
   Chrome's viewer (and our own checker) requires monotone timestamps,
   and the default wall clock is allowed not to be. *)
let now_us st =
  let t = ((Atomic.get clock) () -. st.t0) *. 1e6 in
  let t = if t < st.last_ts then st.last_ts else t in
  st.last_ts <- t;
  t

let reset () =
  let st = cur () in
  st.sink <- [];
  st.t0 <- (Atomic.get clock) ();
  st.last_ts <- 0.0

let enable () =
  let st = cur () in
  reset ();
  if not st.enabled then begin
    st.enabled <- true;
    Atomic.incr live
  end

let disable () =
  let st = cur () in
  if st.enabled then begin
    st.enabled <- false;
    Atomic.decr live
  end

let events () = List.rev (cur ()).sink

let emit ph ?(args = []) ~cat name =
  if on () then begin
    let st = cur () in
    if st.enabled then begin
      st.sink <- { ph; name; cat; ts = now_us st; args } :: st.sink
    end
  end

let begin_span ?args ~cat name = emit B ?args ~cat name
let end_span name = emit E ~cat:"" name
let instant ?args ~cat name = emit I ?args ~cat name

let span ?args ~cat name f =
  if not (on () && (cur ()).enabled) then f ()
  else begin
    begin_span ?args ~cat name;
    Fun.protect ~finally:(fun () -> end_span name) f
  end

let with_recording f =
  enable ();
  let v = f () in
  let evs = events () in
  disable ();
  (v, evs)

(* Unlike [with_recording], [capture] saves this domain's sink state
   and puts it back, so a capture can run while an outer recording is
   in progress (the serving daemon harvests per-request decision
   events this way without clobbering a session-level trace).  The
   saved state is domain-local, so concurrent captures on different
   domains are fully independent.  The outer clock's monotonicity is
   preserved by restoring [last_ts]. *)
let capture f =
  let st = cur () in
  let s_enabled = st.enabled
  and s_sink = st.sink
  and s_t0 = st.t0
  and s_last = st.last_ts in
  let restore () =
    if st.enabled && not s_enabled then Atomic.decr live
    else if (not st.enabled) && s_enabled then Atomic.incr live;
    st.enabled <- s_enabled;
    st.sink <- s_sink;
    st.t0 <- s_t0;
    st.last_ts <- s_last
  in
  enable ();
  match f () with
  | v ->
    let evs = events () in
    restore ();
    (v, evs)
  | exception e ->
    restore ();
    raise e
