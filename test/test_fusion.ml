(* Tests for the paper's contribution: Algorithm 1 (pre-fusion
   schedule), Algorithm 2 (outer parallelism), and the partition
   reports — checked against the claims of Figures 5, 6 and 8. *)

open Deps
open Fusion

let swim () = Kernels.Swim.program ~n:12 ()
let advect () = Kernels.Advect.program ~n:12 ()
let gemsfdtd () = Kernels.Gemsfdtd.program ~n:6 ()

let name_of (prog : Scop.Program.t) id = prog.stmts.(id).Scop.Statement.name
let id_of (prog : Scop.Program.t) name =
  let found = ref (-1) in
  Array.iteri
    (fun i (s : Scop.Statement.t) -> if s.name = name then found := i)
    prog.stmts;
  if !found < 0 then Alcotest.failf "no statement %s" name;
  !found

(* --- Algorithm 1 on swim (Figure 5) -------------------------------------- *)

let test_prefusion_swim_first_cluster () =
  let prog = swim () in
  let deps = Dep.analyze prog in
  let ddg = Ddg.build prog deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  (* the first cluster's SCCs, from the decision trace *)
  let _, events =
    Obs.Trace.with_recording (fun () -> Prefusion.order prog ddg scc_of)
  in
  let first =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        if
          (e.name = "prefuse.seed" || e.name = "prefuse.join")
          && List.assoc_opt "cluster" e.args = Some (Obs.Json.Int 0)
        then Option.bind (List.assoc_opt "scc" e.args) Obs.Json.to_int_opt
        else None)
      events
  in
  (* first cluster: S1, S2, S3 then S15 and S18 pulled in by reuse +
     same dimensionality + precedence (paper, Section 4.1, observation
     1-3) *)
  let members =
    List.concat_map (fun scc -> (Ddg.components scc_of).(scc)) first
    |> List.map (name_of prog)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "Figure 5(b) fused nest"
    [ "S1"; "S15"; "S18"; "S2"; "S3" ]
    members

let test_prefusion_order_is_topological () =
  List.iter
    (fun prog ->
      let deps = Dep.analyze prog in
      let ddg = Ddg.build prog deps in
      let scc_of = Ddg.scc_kosaraju ddg in
      let order = Prefusion.order prog ddg scc_of in
      let pos = Hashtbl.create 16 in
      List.iteri (fun p scc -> Hashtbl.replace pos scc p) order;
      (* every true dependence must go forward in SCC position *)
      List.iter
        (fun (d : Dep.t) ->
          if Dep.is_true d && scc_of.(d.src) <> scc_of.(d.dst) then begin
            let ps = Hashtbl.find pos scc_of.(d.src) in
            let pd = Hashtbl.find pos scc_of.(d.dst) in
            if ps >= pd then
              Alcotest.failf "precedence violated for %s"
                (Format.asprintf "%a" Dep.pp d)
          end)
        deps)
    [ swim (); advect (); Kernels.Gemver.program ~n:12 () ]

let test_prefusion_covers_all_sccs () =
  let prog = swim () in
  let deps = Dep.analyze prog in
  let ddg = Ddg.build prog deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  let order = Prefusion.order prog ddg scc_of in
  Alcotest.(check int) "permutation size" (Ddg.scc_count scc_of)
    (List.length order);
  Alcotest.(check (list int)) "is a permutation"
    (List.init (Ddg.scc_count scc_of) Fun.id)
    (List.sort compare order)

(* --- wisefuse end-to-end on swim ------------------------------------------ *)

let test_wisefuse_swim_partitions () =
  let prog = swim () in
  let res = Wisefuse.run prog in
  (match Pluto.Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d));
  (* three partitions: the fused 2-D nest, the 1-D boundary block, the
     second 2-D block *)
  Alcotest.(check int) "three partitions" 3 (Report.partition_count res);
  let part_of name = res.outer_partition.(id_of prog name) in
  List.iter
    (fun s -> Alcotest.(check int) (s ^ " fused with S1") (part_of "S1") (part_of s))
    [ "S2"; "S3"; "S15"; "S18" ];
  List.iter
    (fun s -> Alcotest.(check int) (s ^ " in boundary block") (part_of "S4") (part_of s))
    [ "S5"; "S6"; "S7"; "S8"; "S9"; "S10"; "S11"; "S12" ];
  List.iter
    (fun s -> Alcotest.(check int) (s ^ " in second block") (part_of "S13") (part_of s))
    [ "S14"; "S16"; "S17" ]

let test_wisefuse_beats_smartfuse_reuse () =
  let prog = swim () in
  let wf = Wisefuse.run prog in
  let sf = Pluto.Scheduler.run Pluto.Scheduler.smartfuse prog in
  Alcotest.(check bool) "higher reuse score" true
    (Report.reuse_score wf > Report.reuse_score sf);
  Alcotest.(check bool) "fewer partitions" true
    (Report.partition_count wf < Report.partition_count sf)

(* --- Algorithm 2 on advect (Figure 6) ------------------------------------- *)

let test_wisefuse_advect_algorithm2 () =
  let prog = advect () in
  let res = Wisefuse.run prog in
  (* two partitions: {S1,S2,S3} and {S4} *)
  let parts = Pluto.Scheduler.partitions res in
  Alcotest.(check int) "two partitions" 2 (List.length parts);
  let part_of name = res.outer_partition.(id_of prog name) in
  Alcotest.(check int) "S1,S2 together" (part_of "S1") (part_of "S2");
  Alcotest.(check int) "S1,S3 together" (part_of "S1") (part_of "S3");
  Alcotest.(check bool) "S4 alone" true (part_of "S4" <> part_of "S1");
  (* both outer loops are fully parallel *)
  List.iter
    (fun members ->
      let level =
        (* first non-beta row *)
        let rec find l =
          match List.nth res.sched.(0) l with
          | Pluto.Sched.Beta _ -> find (l + 1)
          | Pluto.Sched.Hyp _ -> l
        in
        find 0
      in
      Alcotest.(check bool) "outer parallel" true
        (Pluto.Satisfy.row_class res.prog res.true_deps res.sched ~level
           ~members
        = Pluto.Satisfy.Parallel))
    parts

let test_wisefuse_advect_vs_maxfuse () =
  let prog = advect () in
  let wf = Wisefuse.run prog in
  let mf = Pluto.Scheduler.run Pluto.Scheduler.maxfuse prog in
  (* maxfuse fuses everything (pipelined); wisefuse trades one cut for
     outer parallelism *)
  Alcotest.(check int) "maxfuse one partition" 1 (Report.partition_count mf);
  Alcotest.(check int) "wisefuse two partitions" 2 (Report.partition_count wf)

(* --- partition table (Figure 8) ------------------------------------------- *)

let test_gemsfdtd_partition_table () =
  let prog = gemsfdtd () in
  let wf = Wisefuse.run prog in
  let sf = Pluto.Scheduler.run Pluto.Scheduler.smartfuse prog in
  let table = Report.partition_table wf in
  Alcotest.(check int) "one row per SCC" 12 (List.length table);
  (* wisefuse: all 3-D SCCs share a partition, all 2-D SCCs share a
     partition - two partitions in total (the "minimizes the number of
     partitions" claim of Figure 8) *)
  Alcotest.(check int) "wisefuse partitions" 2 (Report.partition_count wf);
  let dims_by_part = Hashtbl.create 4 in
  List.iter
    (fun (r : Report.row) ->
      let cur =
        Option.value (Hashtbl.find_opt dims_by_part r.partition) ~default:[]
      in
      Hashtbl.replace dims_by_part r.partition (r.dim :: cur))
    table;
  Hashtbl.iter
    (fun _ dims ->
      Alcotest.(check bool) "uniform dimensionality per partition" true
        (List.for_all (fun d -> d = List.hd dims) dims))
    dims_by_part;
  (* smartfuse ends up with strictly more partitions *)
  Alcotest.(check bool) "smartfuse has more partitions" true
    (Report.partition_count sf > Report.partition_count wf)

let test_report_scores () =
  let prog = advect () in
  let res = Wisefuse.run prog in
  Alcotest.(check bool) "reuse score positive" true (Report.reuse_score res > 0);
  Alcotest.(check bool) "rar subset of reuse" true
    (Report.rar_reuse_score res <= Report.reuse_score res)

(* --- exhaustive search: the introduction's counting ----------------------- *)

(* three independent statements, as in swim's S1-S3 *)
let three_independent () =
  let open Scop.Build in
  let ctx = create ~name:"indep3" ~params:[ ("N", 8) ] in
  let n = param ctx "N" in
  let a = array ctx "a" [ n ] and b = array ctx "b" [ n ] and c = array ctx "c" [ n ] in
  let x = array ctx "x" [ n ] and y = array ctx "y" [ n ] and z = array ctx "z" [ n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S1" a [ i ] (x.%([ i ]) *: f 2.0));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S2" b [ i ] (y.%([ i ]) *: f 2.0));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S3" c [ i ] (z.%([ i ]) *: f 2.0));
  finish ctx

(* six statements with three disjoint dependence pairs, as in swim's
   S13-S18 (S13-S16, S14-S17, S15-S18) *)
let six_with_pairs () =
  let open Scop.Build in
  let ctx = create ~name:"pairs6" ~params:[ ("N", 8) ] in
  let n = param ctx "N" in
  let a = array ctx "a" [ n ] and b = array ctx "b" [ n ] and c = array ctx "c" [ n ] in
  let p = array ctx "p" [ n ] and q = array ctx "q" [ n ] and r = array ctx "r" [ n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S13" a [ i ] (p.%([ i ]) *: f 2.0));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S14" b [ i ] (q.%([ i ]) *: f 2.0));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S15" c [ i ] (r.%([ i ]) *: f 2.0));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S16" p [ i ] (a.%([ i ]) *: f 0.5));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S17" q [ i ] (b.%([ i ]) *: f 0.5));
  loop ctx "i" ~lb ~ub (fun i -> assign ctx "S18" r [ i ] (c.%([ i ]) *: f 0.5));
  finish ctx

let test_search_counts_three () =
  (* the paper: "a total of 24 different fusion partitionings are
     possible for only 3 statements" *)
  let prog = three_independent () in
  let deps = Dep.analyze prog in
  let ddg = Ddg.build prog deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  Alcotest.(check int) "3! orderings" 6 (List.length (Search.orderings ddg scc_of));
  Alcotest.(check int) "2^2 partitionings each" 4
    (Search.partitionings_per_ordering 3);
  Alcotest.(check int) "24 total" 24 (Search.space_size ddg scc_of)

let test_search_counts_six () =
  (* the paper: "there are 90 possible orderings of statements, and for
     each ordering, there are 32 different partitionings, resulting in
     a total of 2880" *)
  let prog = six_with_pairs () in
  let deps = Dep.analyze prog in
  let ddg = Ddg.build prog deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  Alcotest.(check int) "90 orderings" 90 (List.length (Search.orderings ddg scc_of));
  Alcotest.(check int) "32 partitionings each" 32
    (Search.partitionings_per_ordering 6);
  Alcotest.(check int) "2880 total" 2880 (Search.space_size ddg scc_of)

let test_search_masks () =
  (* the candidates of one ordering of three independent SCCs carry
     every cut mask over its two boundaries *)
  let cands = Search.best (three_independent ()) in
  let order = (List.hd cands).Search.order in
  let masks =
    List.filter_map
      (fun (c : Search.candidate) -> if c.order = order then Some c.groups else None)
      cands
  in
  Alcotest.(check int) "4 masks" 4 (List.length masks);
  Alcotest.(check bool) "all-fused present" true (List.mem [ 0; 0; 0 ] masks);
  Alcotest.(check bool) "all-cut present" true (List.mem [ 0; 1; 2 ] masks)

let test_search_exhaustive_contains_wisefuse () =
  (* exhaustively evaluate all 24 candidates of the independent triple;
     wisefuse's partition count must match one of the best candidates *)
  let prog = three_independent () in
  let cands = Search.best prog in
  Alcotest.(check int) "24 candidates" 24 (List.length cands);
  (match cands with
  | bestc :: _ ->
    let wf = Wisefuse.run prog in
    let wf_ast = Codegen.Scan.of_result wf in
    let wf_cycles =
      (Machine.Perf.simulate prog wf_ast ~params:prog.Scop.Program.default_params)
        .Machine.Perf.cycles
    in
    (* wisefuse is within 5% of the exhaustive optimum here *)
    Alcotest.(check bool) "wisefuse near-optimal" true
      (float_of_int wf_cycles <= 1.05 *. float_of_int bestc.Search.cycles)
  | [] -> Alcotest.fail "no candidates");
  (* every candidate is semantically correct *)
  let params = prog.Scop.Program.default_params in
  let reference = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run_original prog reference ~params;
  List.iter
    (fun (c : Search.candidate) ->
      let m = Machine.Interp.init_memory prog ~params in
      Machine.Interp.run prog (Codegen.Scan.of_result c.result) m ~params;
      match Machine.Interp.first_diff reference m with
      | None -> ()
      | Some d -> Alcotest.failf "candidate differs: %s" d)
    cands

let () =
  Alcotest.run "fusion"
    [ ( "algorithm1",
        [ Alcotest.test_case "swim first cluster (Fig 5)" `Quick
            test_prefusion_swim_first_cluster;
          Alcotest.test_case "topological order" `Quick
            test_prefusion_order_is_topological;
          Alcotest.test_case "covers all SCCs" `Quick
            test_prefusion_covers_all_sccs ] );
      ( "wisefuse-swim",
        [ Alcotest.test_case "partitions (Fig 5b)" `Quick
            test_wisefuse_swim_partitions;
          Alcotest.test_case "beats smartfuse on reuse" `Quick
            test_wisefuse_beats_smartfuse_reuse ] );
      ( "algorithm2",
        [ Alcotest.test_case "advect distribution (Fig 6)" `Quick
            test_wisefuse_advect_algorithm2;
          Alcotest.test_case "advect vs maxfuse (Fig 4c)" `Quick
            test_wisefuse_advect_vs_maxfuse ] );
      ( "report",
        [ Alcotest.test_case "gemsfdtd table (Fig 8)" `Quick
            test_gemsfdtd_partition_table;
          Alcotest.test_case "scores" `Quick test_report_scores ] );
      ( "search",
        [ Alcotest.test_case "24 for three independent (S1-S3)" `Quick
            test_search_counts_three;
          Alcotest.test_case "2880 for six paired (S13-S18)" `Quick
            test_search_counts_six;
          Alcotest.test_case "cut masks" `Quick test_search_masks;
          Alcotest.test_case "exhaustive vs wisefuse" `Quick
            test_search_exhaustive_contains_wisefuse ] ) ]
