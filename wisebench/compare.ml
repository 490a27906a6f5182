(* A/B comparison of two directories of result files (--out), under the
   bounds of Spec: one row per workload x metric with each side's median
   and quartiles and a verdict.

   better      the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the
               parent's interquartile range;
   worse       the change's median is worse than the parent's by more
               than the metric's bound;
   unresolved  the parent's own spread is wider than the bound, unless
               every change run reads better (or worse) than every
               parent run;
   same        otherwise.
   Per-layer metrics have no bound: counts either repeat exactly (same)
   or changed; per-layer timings are shown unjudged (n/a). *)

type result_file = { workload : string; trace : bool; metrics : (string * float) list }

let read_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let open Obs.Json in
  match parse text with
  | Error _ -> None
  | Ok doc -> (
    match
      ( Option.bind (member "workload" doc) to_string_opt,
        Option.bind (member "trace" doc) to_bool_opt,
        Option.bind (member "result" doc) (member "metrics") )
    with
    | Some workload, Some trace, Some (Obj ms) ->
      let metrics =
        List.filter_map
          (fun (n, v) -> Option.map (fun x -> (n, x)) (Option.bind (member "value" v) to_float_opt))
          ms
      in
      Some { workload; trace; metrics }
    | _ -> None)

let read_dir dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f -> read_file (Filename.concat dir f))

type verdict = Better | Same | Worse | Unresolved | Changed | Unjudged

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Changed -> "changed"
  | Unjudged -> "n/a"

(* [judge m ~parent ~change] over paired runs (pair i = i-th run of each
   side) *)
let judge (m : Spec.metric) ~parent ~change =
  let ma = Stats.median parent and mb = Stats.median change in
  match m.Spec.bound with
  | None when List.mem m.Spec.unit_ [ "us"; "ms"; "s"; "%" ] -> Unjudged
  | None -> if ma = mb then Same else Changed
  | Some bound ->
    let better x y = match m.Spec.better with Spec.Lower -> y < x | Spec.Higher -> y > x in
    let q1, _, q3 = Stats.quartiles parent in
    let iqr = q3 -. q1 in
    let rec pairs a b = match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> [] in
    let ps = pairs parent change in
    let wins = List.length (List.filter (fun (x, y) -> better x y) ps) in
    let every rel = List.for_all (fun y -> List.for_all (fun x -> rel x y) parent) change in
    let within =
      match m.Spec.better with
      | Spec.Lower -> Bench_check.check_max ~ceiling:(ma *. (1.0 +. bound)) ~value:mb
      | Spec.Higher -> Bench_check.check_min ~floor:(ma *. (1.0 -. bound)) ~value:mb
    in
    let wide = iqr /. ma > bound in
    if ps <> [] && wins * 10 >= 9 * List.length ps && better ma mb && Float.abs (mb -. ma) > iqr
    then Better
    else if Bench_check.bound_failure within then
      if wide && not (every (fun x y -> better y x)) then Unresolved else Worse
    else if wide && not (every better) then Unresolved
    else Same

let row ~workload (m : Spec.metric) ~parent ~change =
  let q xs =
    let q1, q2, q3 = Stats.quartiles xs in
    if List.length xs < 2 then Printf.sprintf "%12.4g %23s" (Stats.median xs) ""
    else Printf.sprintf "%12.4g [%10.4g, %10.4g]" q2 q1 q3
  in
  let v = judge m ~parent ~change in
  Printf.printf "%-10s %-24s %-6s %s  %s  %-10s\n" workload m.Spec.name m.Spec.unit_ (q parent)
    (q change) (verdict_name v);
  v

let run dir_a dir_b =
  let a = read_dir dir_a and b = read_dir dir_b in
  Printf.printf "%-10s %-24s %-6s %12s %23s  %12s %23s  %s\n" "workload" "metric" "unit"
    "A median" "[q1, q3]" "B median" "[q1, q3]" "verdict";
  let worse = ref false in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, metrics) ->
          let values side (m : Spec.metric) =
            List.filter_map
              (fun r ->
                if r.workload = workload && r.trace = trace then List.assoc_opt m.Spec.name r.metrics
                else None)
              side
          in
          List.iter
            (fun (m : Spec.metric) ->
              match (values a m, values b m) with
              | [], _ | _, [] -> ()
              | parent, change ->
                if row ~workload m ~parent ~change = Worse then worse := true)
            metrics)
        [ (false, Spec.end_to_end); (true, Spec.per_layer) ])
    Spec.workloads;
  !worse
