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
   takes a lock and two domains recording concurrently cannot clobber
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
}

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { enabled = false; sink = []; t0 = 0.0 })

let cur () = Domain.DLS.get key

(* number of domains with an enabled sink *)
let live = Atomic.make 0

let on () = Atomic.get live > 0

(* CLOCK_MONOTONIC in seconds, from the C stub [Linalg.Clock] reads
   too. It never steps, so the timestamps of one recording are
   non-decreasing, as Chrome's viewer (and our own checker) requires. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let set_enabled st on =
  if st.enabled <> on then begin
    st.enabled <- on;
    if on then Atomic.incr live else Atomic.decr live
  end

let disable () = set_enabled (cur ()) false

let emit ph ?(args = []) ~cat name =
  if on () then begin
    let st = cur () in
    if st.enabled then begin
      let ts = (clock () -. st.t0) *. 1e6 in
      st.sink <- { ph; name; cat; ts; args } :: st.sink
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

(* The domain's sink is saved before [f] runs and put back after it,
   so an enclosing recording neither sees [f]'s events nor loses its
   own, and its clock origin is unchanged. *)
let with_recording f =
  let st = cur () in
  let enabled = st.enabled and sink = st.sink and t0 = st.t0 in
  st.sink <- [];
  st.t0 <- clock ();
  set_enabled st true;
  Fun.protect
    ~finally:(fun () ->
      set_enabled st enabled;
      st.sink <- sink;
      st.t0 <- t0)
    (fun () ->
      let v = f () in
      (v, List.rev st.sink))
