(* Monotonic interval clock.

   Serving and budgeting need interval timing that cannot go backwards:
   [Unix.gettimeofday] follows the system wall clock, so an NTP step
   can produce negative request latencies in response envelopes and
   bench records, or a deadline budget that trips instantly (or
   never). CLOCK_MONOTONIC never steps. The nanosecond reading comes
   from the bechamel monotonic-clock C stub, which the opam switch
   already links for the bench harness; its origin is arbitrary (boot
   time on Linux), so values are meaningful only as differences. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let elapsed_ms ~since = (now () -. since) *. 1e3
let elapsed_us ~since = (now () -. since) *. 1e6
