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
    {!with_recording} and {!disable} act on the calling domain's sink
    only.  Emission is therefore lock-free — no mutex, no cross-domain
    interleaving — and concurrent recordings on different domains (one
    per in-flight request in the serving daemon) cannot lose or mix
    events.

    The default sink is {e null}: {!on} is a single [Atomic.get] of
    the count of domains with an enabled sink, and every emit function
    returns immediately when it reads zero, so instrumented hot paths
    cost one atomic load when tracing is off.  Call sites that build
    argument lists should guard with [if Trace.on () then ...] so the
    allocation is skipped too.

    Timestamps are microseconds relative to the start of the calling
    domain's current recording, read from CLOCK_MONOTONIC (the same C
    stub as [Linalg.Clock]), so they never decrease within a recording
    (Chrome's trace viewer requires monotone timestamps). *)

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

(** Stop the calling domain's recording. *)
val disable : unit -> unit

(** {2 Emission} — all no-ops when the calling domain's sink is off. *)

val begin_span : ?args:(string * Json.t) list -> cat:string -> string -> unit
val end_span : string -> unit

(** [span ~cat name f] wraps [f ()] in a begin/end pair (ended on
    exceptions too). *)
val span : ?args:(string * Json.t) list -> cat:string -> string -> (unit -> 'a) -> 'a

val instant : ?args:(string * Json.t) list -> cat:string -> string -> unit

(** [with_recording f] runs [f] with a fresh sink {e on the calling
    domain}, whose clock starts at zero, and returns [f]'s result with
    the events [f] recorded, in order. The domain's sink (on or off,
    its events and its clock origin) is saved first and restored when
    [f] returns or raises; after a raise the recorded events are lost.
    Recordings therefore nest: an enclosing recording gets exactly its
    own events, whatever inner recordings ran, and concurrent
    recordings on different domains are independent. The serving
    daemon records each cold solve and each sampled request this way. *)
val with_recording : (unit -> 'a) -> 'a * event list
