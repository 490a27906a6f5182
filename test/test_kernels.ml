(* Tests for the benchmark kernels: structural properties that the
   paper's arguments rest on. *)

open Deps

let analyze prog = Dep.analyze prog

let scc_count prog =
  let deps = analyze prog in
  let ddg = Ddg.build prog deps in
  Ddg.scc_count (Ddg.scc_kosaraju ddg)

let test_registry_complete () =
  (* Table 2's ten benchmarks plus the four reduction kernels *)
  Alcotest.(check int) "fourteen benchmarks" 14
    (List.length Kernels.Registry.all);
  let names = List.map (fun e -> e.Kernels.Registry.name) Kernels.Registry.all in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " present") true (List.mem n names))
    [ "gemsfdtd"; "swim"; "applu"; "bt"; "sp"; "advect"; "lu"; "tce"; "gemver";
      "wupwise"; "dot"; "gemmacc"; "histogram"; "covariance" ];
  (* five large programs, as in Table 2 *)
  Alcotest.(check int) "five large" 5
    (List.length (List.filter (fun e -> e.Kernels.Registry.large) Kernels.Registry.all))

let test_registry_builds () =
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      let prog = e.program ~n:6 () in
      Alcotest.(check bool)
        (e.name ^ " has statements")
        true
        (Array.length prog.Scop.Program.stmts > 0))
    Kernels.Registry.all

let test_swim_structure () =
  let prog = Kernels.Swim.program ~n:8 () in
  Alcotest.(check int) "18 statements" 18 (Array.length prog.stmts);
  (* dimensionality profile: 3 + 9 + 6 *)
  let dims = Array.map Scop.Statement.depth prog.stmts in
  Alcotest.(check int) "nine 1-D statements" 9
    (Array.fold_left (fun acc d -> if d = 1 then acc + 1 else acc) 0 dims);
  Alcotest.(check int) "nine 2-D statements" 9
    (Array.fold_left (fun acc d -> if d = 2 then acc + 1 else acc) 0 dims);
  (* S13 depends on intermediates; S15 does not (the Figure 5 argument) *)
  let deps = analyze prog in
  let id name =
    let r = ref (-1) in
    Array.iteri (fun i (s : Scop.Statement.t) -> if s.name = name then r := i) prog.stmts;
    !r
  in
  let depends_on_intermediate dst =
    List.exists
      (fun (d : Dep.t) ->
        Dep.is_true d && d.dst = id dst && d.src >= id "S4" && d.src <= id "S12")
      deps
  in
  Alcotest.(check bool) "S13 blocked by intermediates" true
    (depends_on_intermediate "S13");
  Alcotest.(check bool) "S16 blocked by intermediates" true
    (depends_on_intermediate "S16");
  Alcotest.(check bool) "S15 free of intermediates" false
    (depends_on_intermediate "S15");
  Alcotest.(check bool) "S18 free of intermediates" false
    (depends_on_intermediate "S18")

let test_swim_input_reuse () =
  (* S1, S2, S3 share reads (cu, cv, z, h): the input dependences
     Algorithm 1 needs *)
  let prog = Kernels.Swim.program ~n:8 () in
  let deps = analyze prog in
  let rar a b =
    List.exists
      (fun (d : Dep.t) ->
        d.kind = Dep.Input
        && ((d.src = a && d.dst = b) || (d.src = b && d.dst = a)))
      deps
  in
  Alcotest.(check bool) "S1~S2" true (rar 0 1);
  Alcotest.(check bool) "S1~S3" true (rar 0 2);
  Alcotest.(check bool) "S2~S3" true (rar 1 2)

let test_lu_single_scc () =
  let prog = Kernels.Lu.program ~n:8 () in
  Alcotest.(check int) "S1 and S2 form one SCC" 1 (scc_count prog)

let test_advect_sccs () =
  let prog = Kernels.Advect.program ~n:8 () in
  Alcotest.(check int) "four singleton SCCs" 4 (scc_count prog)

let test_tce_chain () =
  let prog = Kernels.Tce.program ~n:5 () in
  let deps = analyze prog in
  (* producer-consumer chain S1 -> S2 -> S3 -> S4 *)
  let flow a b =
    List.exists
      (fun (d : Dep.t) -> d.kind = Dep.Flow && d.src = a && d.dst = b)
      deps
  in
  Alcotest.(check bool) "S1->S2" true (flow 0 1);
  Alcotest.(check bool) "S2->S3" true (flow 1 2);
  Alcotest.(check bool) "S3->S4" true (flow 2 3);
  (* permuted loop orders *)
  let iters i = prog.stmts.(i).Scop.Statement.iters in
  Alcotest.(check bool) "loop orders differ" true (iters 0 <> iters 1)

let test_gemsfdtd_dim_mix () =
  let prog = Kernels.Gemsfdtd.program ~n:5 () in
  let dims = Array.map Scop.Statement.depth prog.stmts in
  Alcotest.(check int) "six 3-D" 6
    (Array.fold_left (fun a d -> if d = 3 then a + 1 else a) 0 dims);
  Alcotest.(check int) "six 2-D" 6
    (Array.fold_left (fun a d -> if d = 2 then a + 1 else a) 0 dims);
  (* the dimensionality alternates in program order: the structure that
     defeats dimension-based cutting under a DFS order *)
  Alcotest.(check bool) "mix alternates" true
    (dims.(1) = 3 && dims.(2) = 2 && dims.(3) = 3)

let test_passes_cross_pass_deps () =
  (* applu: a flow dependence from each pass into the next *)
  let prog = Kernels.Applu.program ~n:6 () in
  let deps = analyze prog in
  let id name =
    let r = ref (-1) in
    Array.iteri (fun i (s : Scop.Statement.t) -> if s.name = name then r := i) prog.stmts;
    !r
  in
  let flow a b =
    List.exists
      (fun (d : Dep.t) -> d.kind = Dep.Flow && d.src = id a && d.dst = id b)
      deps
  in
  Alcotest.(check bool) "x-pass feeds y-pass" true (flow "Sxa" "Syb");
  Alcotest.(check bool) "y-pass feeds z-pass" true (flow "Sya" "Szb")

let test_wupwise_imperfect () =
  let prog = Kernels.Wupwise.program ~n:6 () in
  let dims = Array.map Scop.Statement.depth prog.stmts in
  Alcotest.(check (array int)) "imperfect nest" [| 2; 2; 3; 3 |] dims;
  (* the 3-D statements are reductions over k (self flow carried at
     level 2) *)
  let deps = analyze prog in
  Alcotest.(check bool) "S3 reduction" true
    (List.exists
       (fun (d : Dep.t) ->
         d.kind = Dep.Flow && d.src = 2 && d.dst = 2 && d.level = Dep.Carried 2)
       deps)

(* --- Polybench extras ----------------------------------------------------- *)

let test_extras_build () =
  List.iter
    (fun (name, mk) ->
      let prog = mk () in
      Alcotest.(check bool) (name ^ " builds") true
        (Array.length prog.Scop.Program.stmts > 0))
    Kernels.Extras.all

let test_extras_wisefuse_matches_smartfuse () =
  (* Section 5.3: identical partitionings on small kernels *)
  List.iter
    (fun (name, mk) ->
      let prog = mk () in
      let wf = Fusion.Wisefuse.run prog in
      let sf = Pluto.Scheduler.run Pluto.Scheduler.smartfuse prog in
      Alcotest.(check int)
        (name ^ " same partition count")
        (Fusion.Report.partition_count sf)
        (Fusion.Report.partition_count wf))
    Kernels.Extras.all

let test_extras_semantics () =
  List.iter
    (fun (name, mk) ->
      let prog = mk () in
      let params = prog.Scop.Program.default_params in
      let reference = Machine.Interp.init_memory prog ~params in
      Machine.Interp.run_original prog reference ~params;
      let res = Fusion.Wisefuse.run prog in
      let m = Machine.Interp.init_memory prog ~params in
      Machine.Interp.run prog (Codegen.Scan.of_result res) m ~params;
      match Machine.Interp.first_diff reference m with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" name d)
    Kernels.Extras.all

let test_jacobi_time_loop_serial () =
  (* the t loop must come out Forward (serial), the space loops parallel *)
  let prog = List.assoc "jacobi2d" Kernels.Extras.all () in
  let res = Fusion.Wisefuse.run prog in
  let members = [ 0; 1 ] in
  let first_hyp =
    let rec find l =
      match List.nth res.sched.(0) l with
      | Pluto.Sched.Beta _ -> find (l + 1)
      | Pluto.Sched.Hyp _ -> l
    in
    find 0
  in
  Alcotest.(check bool) "t loop is pipelined" true
    (Pluto.Satisfy.row_class res.prog res.true_deps res.sched ~level:first_hyp
       ~members
    = Pluto.Satisfy.Forward)

let () =
  Alcotest.run "kernels"
    [ ( "registry",
        [ Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "builds" `Quick test_registry_builds ] );
      ( "extras",
        [ Alcotest.test_case "build" `Quick test_extras_build;
          Alcotest.test_case "wisefuse = smartfuse" `Quick
            test_extras_wisefuse_matches_smartfuse;
          Alcotest.test_case "semantics" `Quick test_extras_semantics;
          Alcotest.test_case "jacobi t-loop serial" `Quick
            test_jacobi_time_loop_serial ] );
      ( "structure",
        [ Alcotest.test_case "swim layout" `Quick test_swim_structure;
          Alcotest.test_case "swim input reuse" `Quick test_swim_input_reuse;
          Alcotest.test_case "lu single SCC" `Quick test_lu_single_scc;
          Alcotest.test_case "advect SCCs" `Quick test_advect_sccs;
          Alcotest.test_case "tce chain" `Quick test_tce_chain;
          Alcotest.test_case "gemsfdtd dim mix" `Quick test_gemsfdtd_dim_mix;
          Alcotest.test_case "applu cross-pass deps" `Quick
            test_passes_cross_pass_deps;
          Alcotest.test_case "wupwise imperfect" `Quick test_wupwise_imperfect ] ) ]
