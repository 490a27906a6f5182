(** Hierarchical span tracing and decision provenance, with
    {e per-domain} sinks.

    The tracer records two kinds of events into an in-memory sink:

    - {b spans} (begin/end pairs) forming a tree — pipeline stages,
      per-level hyperplane searches — whose exclusive self-times
      reconcile with the stage times [Linalg.Counters.time] reports;
    - {b instants} — point-in-time decision events (why an SCC pair was
      cut, whether an ILP solve was warm or cold, which degradation
      rung fired) with structured {!Json.t} arguments.

    Every domain owns an independent sink in domain-local storage:
    {!with_recording}, {!capture} etc. act on the calling domain's
    sink only.  Emission is therefore lock-free — no mutex, no
    cross-domain interleaving — and concurrent {!capture}s on
    different domains (one per in-flight request in the serving
    daemon) cannot lose or mix events.

    The default sink is {e null}: {!on} is a single [Atomic.get] of
    the count of domains with an enabled sink, and every emit function
    returns immediately when it reads zero, so instrumented hot paths
    cost one atomic load when tracing is off.  Call sites that build
    argument lists should guard with [if Trace.on () then ...] so the
    allocation is skipped too.

    Timestamps are microseconds relative to the start of the calling
    domain's current recording, clamped to be non-decreasing (Chrome's
    trace viewer requires monotone timestamps).  The timestamp source
    defaults to the wall clock; [Linalg.Clock] installs the monotonic
    clock via {!set_clock} at link time. *)

type phase = B | E | I

type event = {
  ph : phase;
  name : string;
  cat : string;
  ts : float;  (** microseconds since the recording started *)
  args : (string * Json.t) list;
}

(** Is any domain's sink active? One [Atomic.get] — the only check hot
    paths pay when tracing is off. *)
val on : unit -> bool

(** Replace the timestamp source (seconds, as a float). Installed once
    at link time by [Linalg.Clock]; tests may swap in a fake clock. *)
val set_clock : (unit -> float) -> unit

(** Stop the calling domain's recording. *)
val disable : unit -> unit

(** {2 Emission} — all no-ops when the calling domain's sink is off. *)

val begin_span : ?args:(string * Json.t) list -> cat:string -> string -> unit
val end_span : string -> unit

(** [span ~cat name f] wraps [f ()] in a begin/end pair (ended on
    exceptions too). *)
val span : ?args:(string * Json.t) list -> cat:string -> string -> (unit -> 'a) -> 'a

val instant : ?args:(string * Json.t) list -> cat:string -> string -> unit

(** [with_recording f] starts recording into a fresh sink {e on the
    calling domain} (dropping that domain's prior events and
    re-zeroing its clock), runs [f] and returns
    its result with the recorded events; the previous sink state
    (on/off and events) is NOT restored — callers own their domain's
    tracer. *)
val with_recording : (unit -> 'a) -> 'a * event list

(** [capture f] runs [f] under a fresh recording like {!with_recording}
    but saves the calling domain's entire sink state first and
    restores it afterwards (also on exceptions — the captured events
    are then lost). Captures therefore nest, and concurrent captures
    on different domains are independent. This is what the serving
    daemon uses to harvest per-request decision events. *)
val capture : (unit -> 'a) -> 'a * event list
