open Deps

(* all topological orderings of the SCC condensation, by backtracking
   over ready SCCs *)
let orderings (ddg : Ddg.t) scc_of =
  let nscc = Ddg.scc_count scc_of in
  (* SCC-level predecessor counts *)
  let preds = Array.make nscc [] in
  Array.iteri
    (fun v succs ->
      List.iter
        (fun w ->
          let a = scc_of.(v) and b = scc_of.(w) in
          if a <> b && not (List.mem a preds.(b)) then preds.(b) <- a :: preds.(b))
        succs)
    ddg.succ;
  let visited = Array.make nscc false in
  let acc = ref [] in
  let rec go chosen count =
    if count = nscc then acc := List.rev chosen :: !acc
    else
      for scc = 0 to nscc - 1 do
        if
          (not visited.(scc))
          && List.for_all (fun p -> visited.(p)) preds.(scc)
        then begin
          visited.(scc) <- true;
          go (scc :: chosen) (count + 1);
          visited.(scc) <- false
        end
      done
  in
  go [] 0;
  List.rev !acc

let partitionings_per_ordering k = if k <= 1 then 1 else 1 lsl (k - 1)

let space_size ddg scc_of =
  let os = orderings ddg scc_of in
  List.fold_left
    (fun acc o -> acc + partitionings_per_ordering (List.length o))
    0 os

(* the [2^(k-1)] group-id vectors for [k] SCC positions: every cut mask
   over k-1 boundaries, rendered as non-decreasing group ids starting
   at 0 *)
let cut_masks k =
  if k <= 0 then []
  else begin
    let masks = ref [] in
    for m = 0 to (1 lsl (k - 1)) - 1 do
      let groups = Array.make k 0 in
      for pos = 1 to k - 1 do
        groups.(pos) <-
          (groups.(pos - 1) + if m land (1 lsl (pos - 1)) <> 0 then 1 else 0)
      done;
      masks := Array.to_list groups :: !masks
    done;
    List.rev !masks
  end

type candidate = {
  order : int list;
  groups : int list;
  result : Pluto.Scheduler.result;
  cycles : int;
}

(* candidates tried by [best], in enumeration order *)
let limit = 64

let best (prog : Scop.Program.t) =
  let deps = Dep.analyze prog in
  let ddg = Ddg.build prog deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  let params = prog.default_params in
  (* the candidates share their dependence polyhedra, so one memo
     serves the whole search *)
  let memo = Pluto.Farkas.memo () in
  let candidates = ref [] in
  let tried = ref 0 in
  (try
     List.iter
       (fun order ->
         List.iter
           (fun groups ->
             if !tried >= limit then raise Exit;
             incr tried;
             let cfg =
               {
                 Pluto.Scheduler.name =
                   Printf.sprintf "search-%d" !tried;
                 order_sccs = (fun _ _ _ -> order);
                 initial_cut = Some (Pluto.Scheduler.Cut_groups groups);
                 fallback_cut = Pluto.Scheduler.Cut_minimal;
                 outer_parallel = false;
               }
             in
             match Pluto.Scheduler.schedule_with_deps ~memo cfg prog deps with
             | Ok result ->
               let stats =
                 match
                   Pluto.Diagnostics.protect (fun () ->
                       let ast = Codegen.Scan.of_result result in
                       Machine.Perf.simulate prog ast ~params)
                 with
                 | Ok s -> Some s
                 | Error _ -> None (* codegen rejected the transform *)
               in
               Option.iter
                 (fun (stats : Machine.Perf.stats) ->
                   candidates :=
                     { order; groups; result; cycles = stats.Machine.Perf.cycles }
                     :: !candidates)
                 stats
             | Error _ ->
               (* the scheduler may reject an enumerated candidate (no
                  further cut possible); skip it *)
               ())
           (cut_masks (List.length order)))
       (orderings ddg scc_of)
   with Exit -> ());
  List.sort (fun a b -> compare a.cycles b.cycles) !candidates
