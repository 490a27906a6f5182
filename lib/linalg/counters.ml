(* Performance counters for the exact-arithmetic pipeline, one set per
   domain.

   Every counter and the stack of open stage timers live in one record
   held in domain-local storage, the pattern Obs.Trace uses for its
   sinks. Only the owning domain touches a record, so the hot paths
   (simplex pivots, bignum promotions) bump a plain array slot — no
   atomic, no lock — and solves running on different domains never see
   each other's counts.
   [scoped] installs a fresh record for one callback (one solve) and
   puts the caller's back afterwards, so a solve's counts are its own
   without resetting anything shared.

   A counter is its slot in the record's [counts]; [names] fixes the
   slots and the [all_counters] order (which serve payloads, and the
   digests over them, depend on). The eight [serve_*] names have no
   handle: nothing counts them, and they stay in [names] so payloads
   keep printing them as 0. *)

let names =
  [| "lp_solves"; "lp_pivots"; "ilp_solves"; "bb_nodes"; "warm_starts";
     "warm_fallbacks"; "dual_pivots"; "farkas_cache_hits"; "farkas_cache_misses";
     "findings_error"; "findings_warning"; "findings_info"; "reductions_detected";
     "reductions_certified"; "lp_relax_solves"; "cluster_rounds"; "dfp_fallbacks";
     "serve_requests"; "serve_cache_hits"; "serve_cache_misses";
     "serve_cache_evictions"; "serve_shed"; "serve_recovered";
     "serve_breaker_trips"; "serve_breaker_rejects"; "big_promotions";
     "big_demotions" |]

type counter = int

(* a name missing from [names] fails at module initialization *)
let slot name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let lp_solves = slot "lp_solves"
let lp_pivots = slot "lp_pivots"
let ilp_solves = slot "ilp_solves"
let bb_nodes = slot "bb_nodes"

(* incremental-engine counters (warm-started dual simplex + Farkas
   memoization) *)
let warm_starts = slot "warm_starts"
let warm_fallbacks = slot "warm_fallbacks"
let dual_pivots = slot "dual_pivots"
let farkas_cache_hits = slot "farkas_cache_hits"
let farkas_cache_misses = slot "farkas_cache_misses"

(* wisecheck (lib/analysis) finding counters, bumped once per emitted
   finding *)
let findings_error = slot "findings_error"
let findings_warning = slot "findings_warning"
let findings_info = slot "findings_info"

(* wisereduce counters *)
let reductions_detected = slot "reductions_detected"
let reductions_certified = slot "reductions_certified"

(* lp-dfp engine counters *)
let lp_relax_solves = slot "lp_relax_solves"
let cluster_rounds = slot "cluster_rounds"
let dfp_fallbacks = slot "dfp_fallbacks"

let promotions = slot "big_promotions"
let demotions = slot "big_demotions"

type t = {
  counts : int array;
  (* child-time accumulators of the currently active (nested) timers,
     innermost first *)
  mutable active : float ref list;
}

let fresh () = { counts = Array.make (Array.length names) 0; active = [] }

let key : t Domain.DLS.key = Domain.DLS.new_key fresh
let cur () = Domain.DLS.get key

let incr c =
  let r = cur () in
  r.counts.(c) <- r.counts.(c) + 1

let get c = (cur ()).counts.(c)
let set c v = (cur ()).counts.(c) <- v

let all_counters () =
  let r = cur () in
  List.init (Array.length names) (fun i -> (names.(i), r.counts.(i)))

let scoped f =
  let outer = cur () in
  Domain.DLS.set key (fresh ());
  Fun.protect ~finally:(fun () -> Domain.DLS.set key outer) f

(* --- stage wall-clock timers ----------------------------------------- *)

(* Timers are exclusive (self-time): when stages nest, the inner stage's
   elapsed time is subtracted from the enclosing stage, so the reported
   stage times are disjoint and sum to at most the outermost wall time.

   Each completed stage goes to the stage observer, the one consumer of
   stage times: the daemon's [wisefuse_stage_duration_us] histograms,
   wisebench's serve layers and the CLI's [--stats] table. Kept as an
   [Atomic] function cell so installation is race-free against
   concurrent solves; the default is a no-op, so a run without an
   observer pays one atomic load per stage. *)
let stage_observer : (string -> float -> unit) Atomic.t =
  Atomic.make (fun _ _ -> ())

let set_stage_observer f = Atomic.set stage_observer f

let time name f =
  (* every stage is also a trace span (category "stage"); the span
     tree's exclusive self-times reconcile with the observed ones *)
  if Obs.Trace.on () then Obs.Trace.begin_span ~cat:"stage" name;
  let r = cur () in
  let t0 = Clock.now () in
  let children = ref 0.0 in
  r.active <- children :: r.active;
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.now () -. t0 in
      (match r.active with
      | c :: rest when c == children ->
        r.active <- rest;
        (* charge the whole span to the parent, keep only self time *)
        (match rest with parent :: _ -> parent := !parent +. dt | [] -> ())
      | _ -> () (* unbalanced via an exotic exception path; be lenient *));
      (Atomic.get stage_observer) name (dt -. !children);
      Obs.Trace.end_span name)
    f

let reset () =
  let r = cur () in
  Array.fill r.counts 0 (Array.length r.counts) 0
