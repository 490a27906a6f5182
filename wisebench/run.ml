(* One workload run: what every workload reports, and how the
   end-to-end metrics and the final result line are derived from it. *)

type outcome = {
  attempted : int;  (** timed operations *)
  failed : int;  (** operations (set-up included) that failed a check *)
  samples : (int * float) array;
      (** (distinct-input index, latency ms) of every untraced timed
          operation *)
  busy_s : float;
      (** the wall the operations kept the system busy: the sum of job
          latencies for the one-at-a-time compile workloads, the
          measured window for the concurrent serve workloads *)
  setup_s : float;  (** median set-up time *)
  layers : (string * float) list;  (** per-layer metrics (traced run only) *)
}

let now = Linalg.Clock.now

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* [setup ~times f] runs [f] [times] times, returning the last result
   and the durations in seconds. *)
let setup ~times f =
  let rec go k acc last =
    if k = 0 then (Option.get last, acc)
    else
      let t0 = now () in
      let r = f () in
      go (k - 1) ((now () -. t0) :: acc) (Some r)
  in
  go times [] None

(* The tail percentile and its sample count, for the printed table. *)
let tail o =
  let a = Stats.sorted (Array.to_list (Array.map snd o.samples)) in
  let n = Array.length a in
  let p = Stats.tail_percentile n in
  (p, n, Stats.percentile a p)

let per_input_medians samples =
  let by = Hashtbl.create 64 in
  Array.iter
    (fun (i, ms) ->
      Hashtbl.replace by i (ms :: Option.value (Hashtbl.find_opt by i) ~default:[]))
    samples;
  Hashtbl.fold (fun _ xs acc -> Stats.median xs :: acc) by []

let latency_gm samples = Stats.geomean (per_input_medians samples)

let end_to_end o =
  let _, _, tail_ms = tail o in
  [ ("latency_gm_ms", latency_gm o.samples);
    ("latency_p50_ms", Stats.median (Array.to_list (Array.map snd o.samples)));
    ("latency_tail_ms", tail_ms);
    ("ops_per_s", float_of_int (Array.length o.samples) /. o.busy_s);
    ("setup_s", o.setup_s) ]

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Solver-effort counts over one pass of distinct inputs, from the
   [Linalg.Counters.all_counters] snapshot of each solve (the same
   names the daemon reports in a payload's "counters"). *)
let counter_layers snapshots =
  let sum name =
    List.fold_left
      (fun acc c -> acc + Option.value (List.assoc_opt name c) ~default:0)
      0 snapshots
  in
  let f name = float_of_int (sum name) in
  [ ("pluto.farkas_misses", f "farkas_cache_misses");
    ( "pluto.farkas_hit_ratio",
      ratio (sum "farkas_cache_hits")
        (sum "farkas_cache_hits" + sum "farkas_cache_misses") );
    ("ilp.lp_solves", f "lp_solves");
    ("ilp.lp_pivots", f "lp_pivots");
    ("ilp.dual_pivots", f "dual_pivots");
    ("ilp.warm_ratio", ratio (sum "warm_starts") (sum "lp_solves"));
    ("ilp.ilp_solves", f "ilp_solves");
    ("ilp.bb_nodes", f "bb_nodes");
    ("ilp.lp_relax_solves", f "lp_relax_solves");
    ("ilp.dfp_fallbacks", f "dfp_fallbacks");
    ("linalg.big_promotions", f "big_promotions");
    ("analysis.findings_error", f "findings_error") ]

(* (traced gm / untraced gm - 1) in percent, over per-input medians *)
let overhead_pct ~untraced ~traced =
  ((latency_gm traced /. latency_gm untraced) -. 1.0) *. 100.0

let result_json ~correct o metrics =
  let open Obs.Json in
  Obj
    [ ("correct", Bool correct);
      ("attempted", Int o.attempted);
      ("failed", Int o.failed);
      ( "metrics",
        Obj
          (List.map
             (fun (name, v) ->
               let unit_ =
                 match Spec.find name with Some m -> m.Spec.unit_ | None -> "?"
               in
               (name, Obj [ ("value", Float v); ("unit", Str unit_) ]))
             metrics) ) ]
