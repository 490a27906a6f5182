(* What the benchmark measures: its workloads and metrics, with the
   regression bound of each end-to-end metric. BENCHMARK.json at the
   repository root states the same lists; the test suite checks that
   the two agree name for name and unit for unit. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** share of the parent's median; end-to-end only *)
}

let workloads = [ "registry"; "scale"; "serve-hot"; "serve-cold" ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }

(* Every end-to-end metric is defined on every workload: an operation
   is one compile job (SCoP to certified C) or one request line. *)
let end_to_end =
  [
    e2e "latency_gm_ms" "ms" Lower 0.25;
    e2e "latency_p50_ms" "ms" Lower 0.25;
    e2e "latency_tail_ms" "ms" Lower 0.25;
    e2e "ops_per_s" "1/s" Higher 0.25;
    e2e "setup_s" "s" Lower 0.25;
  ]

let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

(* Timings are mean self-times, per operation (op) or per solve; every
   workload solves (serve-hot only while warming its cache), so each
   timing is measured on every workload. Counts are totals over one
   pass of the workload's distinct inputs and repeat exactly; a count
   whose layer a workload never enters reads 0. *)
let per_layer =
  [
    layer "kernels.build_us" "us";
    layer "deps.analyze_ms" "ms";
    layer "pluto.scheduling_ms" "ms";
    layer "pluto.verification_ms" "ms";
    layer "codegen.scan_ms" "ms";
    layer "analysis.certify_ms" "ms";
    layer "fusion.self_ms" "ms";
    layer "emit.render_us" "us";
    layer "op.other_us" "us";
    layer "obs.trace_overhead_pct" "%";
    layer "deps.count" "count";
    layer "pluto.farkas_misses" "count";
    layer ~better:Higher "pluto.farkas_hit_ratio" "ratio";
    layer "ilp.lp_solves" "count";
    layer "ilp.lp_pivots" "count";
    layer "ilp.dual_pivots" "count";
    layer ~better:Higher "ilp.warm_ratio" "ratio";
    layer "ilp.ilp_solves" "count";
    layer "ilp.bb_nodes" "count";
    layer "ilp.lp_relax_solves" "count";
    layer "ilp.dfp_fallbacks" "count";
    layer "linalg.big_promotions" "count";
    layer "fusion.degraded" "count";
    layer "analysis.findings_error" "count";
    layer ~better:Higher "codegen.parallel_loops" "count";
    layer "codegen.c_bytes_total" "bytes";
    layer "machine.sim_cycles_gm" "cycles";
    layer ~better:Higher "machine.fig7_wisefuse_gm" "ratio";
    layer "machine.l1_misses" "count";
    layer "machine.l3_misses" "count";
    layer "machine.barriers" "count";
    layer ~better:Higher "serve.hit_ratio" "ratio";
    layer "serve.response_bytes" "bytes";
    layer "serve.coalesced" "count";
  ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
