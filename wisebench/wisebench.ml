(* wisebench: the repository's benchmark, for both halves of the
   paper's evaluation — the cost of producing a schedule (compile and
   serve) and the speed of the code it yields.

     wisebench --workload W [--seed N] [--seconds S] [--trace 0|1]
     wisebench --all [--seed N] [--seconds S] [--trace 0|1]
     wisebench --compare DIR_A DIR_B
     wisebench --write-golden

   A run prints a table, then as its last line one JSON object with
   "correct", "attempted", "failed" and "metrics" (every end-to-end
   metric, or with --trace 1 every per-layer metric). See README.md. *)

open Wb

let workload = ref ""
let seed = ref 1
let seconds = ref 15.0
let trace = ref 0
let smoke = ref false
let all = ref false
let compare = ref None
let write_golden = ref false
let golden_path = ref "wisebench/golden.json"
let out_dir = ref ""
let trace_dir = ref "wisebench/out"

let specs =
  let a = ref "" in
  [ ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Spec.workloads);
    ("--seed", Arg.Set_int seed, "N  the workload seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S  nominal measuring time (default 15)");
    ("--trace", Arg.Set_int trace, "0|1  1 reports the per-layer metrics of a traced run");
    ("--smoke", Arg.Set smoke, " toy-sized workloads (the test suite's pass)");
    ("--all", Arg.Set all, " run every workload, each in a fresh process");
    ( "--compare",
      Arg.Tuple [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ],
      "DIR_A DIR_B  compare two directories of --out result files" );
    ("--write-golden", Arg.Set write_golden, " record the correctness oracle");
    ("--golden", Arg.Set_string golden_path, "PATH  the oracle (default wisebench/golden.json)");
    ("--out", Arg.Set_string out_dir, "DIR  also save the result line there, for --compare");
    ("--trace-dir", Arg.Set_string trace_dir, "DIR  where traced runs write their trace") ]

let usage = "wisebench --workload W [--seed N] [--seconds S] [--trace 0|1] | --all | --compare A B"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("wisebench: " ^ s); exit 2) fmt

(* A budget in the environment would degrade schedules and change the
   work a workload measures. *)
let refuse_budget_env () =
  Array.iter
    (fun kv ->
      if String.length kv >= 16 && String.sub kv 0 16 = "WISEFUSE_BUDGET_" then
        die "refusing to run with %s set" (List.hd (String.split_on_char '=' kv)))
    (Unix.environment ())

let log s = print_endline s

let run_workload ~golden ~trace w =
  let trace_file =
    if trace then Some (Filename.concat !trace_dir (Printf.sprintf "%s-%d.trace.json" w !seed))
    else None
  in
  let seconds = !seconds and smoke = !smoke and seed = !seed in
  match w with
  | "registry" ->
    Compile_wl.run ~golden ~trace ~trace_file ~log (Compile_wl.registry ~smoke ~seed ~seconds)
  | "scale" ->
    Compile_wl.run ~golden ~trace ~trace_file ~log (Compile_wl.scale ~smoke ~seed ~seconds)
  | "serve-hot" -> Serve_wl.hot ~golden ~smoke ~seed ~seconds ~trace ~trace_file ~log
  | "serve-cold" -> Serve_wl.cold ~golden ~smoke ~seed ~seconds ~trace ~trace_file ~log
  | w -> die "unknown workload %S (expected one of %s)" w (String.concat ", " Spec.workloads)

let print_table w (o : Run.outcome) metrics ~trace =
  Printf.printf "wisebench %s seed %d%s: %d operations, %d failed\n" w !seed
    (if trace then " (traced)" else "") o.attempted o.failed;
  List.iter
    (fun (name, v) ->
      let unit_ = match Spec.find name with Some m -> m.Spec.unit_ | None -> "" in
      let note =
        if name = "latency_tail_ms" then
          let p, n, _ = Run.tail o in
          Printf.sprintf "  (%s of %d samples)" (Stats.percentile_name p) n
        else if name = "latency_p50_ms" then
          Printf.sprintf "  (p50 of %d samples)" (Array.length o.samples)
        else ""
      in
      Printf.printf "  %-26s %14.6g %-6s%s\n" name v unit_ note)
    metrics

let save_result w result =
  Run.mkdir_p !out_dir;
  let base = Printf.sprintf "%s-seed%d-trace%d" w !seed !trace in
  let rec free k =
    let p = Filename.concat !out_dir (Printf.sprintf "%s-%d.json" base k) in
    if Sys.file_exists p then free (k + 1) else p
  in
  let doc =
    Obs.Json.Obj
      [ ("workload", Obs.Json.Str w); ("seed", Obs.Json.Int !seed);
        ("trace", Obs.Json.Bool (!trace = 1)); ("result", result) ]
  in
  let oc = open_out_bin (free 0) in
  output_string oc (Obs.Json.to_string doc);
  close_out oc

let single w =
  refuse_budget_env ();
  let golden =
    if not (Sys.file_exists !golden_path) then die "no correctness oracle at %s" !golden_path
    else Golden.load !golden_path
  in
  let trace = !trace = 1 in
  let o = run_workload ~golden ~trace w in
  let measured = if trace then o.Run.layers else Run.end_to_end o in
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        match List.assoc_opt m.Spec.name measured with
        | Some v -> (m.Spec.name, v)
        | None -> die "%s: metric %s was not measured" w m.Spec.name)
      (if trace then Spec.per_layer else Spec.end_to_end)
  in
  print_table w o metrics ~trace;
  let correct = o.Run.failed = 0 && o.Run.attempted > 0 in
  let result = Run.result_json ~correct o metrics in
  if !out_dir <> "" then save_result w result;
  print_endline (Obs.Json.to_string result)

(* each workload in a fresh process: no state carries over *)
let run_all () =
  let failed = ref [] in
  List.iter
    (fun w ->
      let args =
        [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int !seed;
          "--seconds"; string_of_float !seconds; "--trace"; string_of_int !trace;
          "--golden"; !golden_path; "--trace-dir"; !trace_dir ]
        @ (if !out_dir = "" then [] else [ "--out"; !out_dir ])
        @ if !smoke then [ "--smoke" ] else []
      in
      flush stdout;
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
          Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> ()
      | _ -> failed := w :: !failed)
    Spec.workloads;
  if !failed <> [] then die "failed: %s" (String.concat ", " (List.rev !failed))

let record_golden () =
  refuse_budget_env ();
  let golden = Golden.empty ~recording:true in
  let log s = prerr_endline s in
  let check name (o : Run.outcome) =
    if o.Run.failed > 0 then die "%s failed while recording the oracle" name
  in
  check "registry"
    (Compile_wl.run ~golden ~trace:false ~trace_file:None ~log
       (Compile_wl.registry ~smoke:false ~seed:1 ~seconds:0.0));
  check "scale"
    (Compile_wl.run ~golden ~trace:false ~trace_file:None ~log
       (Compile_wl.scale ~smoke:false ~seed:1 ~seconds:0.0));
  check "serve-hot"
    (Serve_wl.hot ~golden ~smoke:false ~seed:1 ~seconds:0.0 ~trace:false ~trace_file:None ~log);
  Golden.save golden !golden_path;
  Printf.printf "wrote %s\n" !golden_path

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  match !compare with
  | Some (a, b) -> if Compare.run a b then exit 1
  | None ->
    if !write_golden then record_golden ()
    else if !all then run_all ()
    else if !workload = "" then die "%s" usage
    else single !workload
