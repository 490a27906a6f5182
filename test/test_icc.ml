(* Tests for the traditional-compiler (icc) baseline model. *)

open Icc

let nest_names prog (nst : Icc_model.nest) =
  List.map
    (fun id -> prog.Scop.Program.stmts.(id).Scop.Statement.name)
    nst.Icc_model.stmts

let test_gemver_no_fusion_serial_reductions () =
  let prog = Kernels.Gemver.program ~n:12 () in
  let r = Icc_model.run prog in
  (* four nests: no fusion opportunities without interchange *)
  Alcotest.(check int) "four nests" 4 (List.length r.Icc_model.nests);
  let by_name =
    List.map (fun nst -> (nest_names prog nst, nst.Icc_model.parallel)) r.nests
  in
  (* the S2 and S4 nests hold inner-loop reductions: not parallelized
     (the paper: "icc fails to achieve coarse-grained parallelism in
     the loop nest enclosing statement S2") *)
  Alcotest.(check bool) "S1 nest parallel" true (List.assoc [ "S1" ] by_name);
  Alcotest.(check bool) "S2 nest serial" false (List.assoc [ "S2" ] by_name);
  Alcotest.(check bool) "S3 nest parallel" true (List.assoc [ "S3" ] by_name);
  Alcotest.(check bool) "S4 nest serial" false (List.assoc [ "S4" ] by_name)

let test_lu_serial () =
  let prog = Kernels.Lu.program ~n:10 () in
  let r = Icc_model.run prog in
  (* non-rectangular: every nest stays serial (Section 5.3) *)
  List.iter
    (fun (nst : Icc_model.nest) ->
      Alcotest.(check bool) "serial" false nst.Icc_model.parallel)
    r.nests

let test_advect_pairwise_fusion () =
  let prog = Kernels.Advect.program ~n:10 () in
  let r = Icc_model.run prog in
  (* S1, S2, S3 are adjacent conformable parallel nests: fused; S4 would
     need shifting (backward dependence): not fused *)
  Alcotest.(check int) "two nests" 2 (List.length r.Icc_model.nests);
  (match r.nests with
  | [ a; b ] ->
    Alcotest.(check (list string)) "first nest" [ "S1"; "S2"; "S3" ]
      (nest_names prog a);
    Alcotest.(check (list string)) "second nest" [ "S4" ] (nest_names prog b);
    Alcotest.(check bool) "both parallel" true
      (a.Icc_model.parallel && b.Icc_model.parallel)
  | _ -> Alcotest.fail "expected two nests")

let test_gemsfdtd_no_fusion () =
  let prog = Kernels.Gemsfdtd.program ~n:6 () in
  let r = Icc_model.run prog in
  (* adjacent nests differ in dimensionality or loop order, and the
     conformable 2-D boundary planes share no data: nothing fuses (the
     paper: icc "doesn't accomplish any fusion" here) *)
  Alcotest.(check int) "twelve nests" 12 (List.length r.Icc_model.nests)

let test_tce_no_fusion () =
  let prog = Kernels.Tce.program ~n:6 () in
  let r = Icc_model.run prog in
  (* permuted loop orders: no conformable pattern *)
  Alcotest.(check int) "four nests" 4 (List.length r.Icc_model.nests)

let test_swim_fusion_within_dims () =
  let prog = Kernels.Swim.program ~n:8 () in
  let r = Icc_model.run prog in
  (* boundary loops fuse only where they share data (unew with unew,
     vnew with vnew): {S4,S5} and {S7,S8}; everything else stays *)
  Alcotest.(check int) "nine nests" 9 (List.length r.Icc_model.nests);
  (* the result must still be a legal schedule (validated inside run,
     but double-check the published invariant) *)
  match
    Pluto.Satisfy.check_legal prog
      (List.filter Deps.Dep.is_true r.Icc_model.deps)
      r.Icc_model.sched
  with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Deps.Dep.pp d)

let test_wupwise_reduction_not_parallel () =
  let prog = Kernels.Wupwise.program ~n:8 () in
  let r = Icc_model.run prog in
  (* the multiply-accumulate statements form an inner reduction: the
     nest holding them stays serial *)
  let has_serial_reduction =
    List.exists
      (fun (nst : Icc_model.nest) ->
        (not nst.Icc_model.parallel)
        && List.exists
             (fun id ->
               let n = prog.Scop.Program.stmts.(id).Scop.Statement.name in
               n = "S3" || n = "S4")
             nst.Icc_model.stmts)
      r.nests
  in
  Alcotest.(check bool) "zgemm nest serial" true has_serial_reduction

let () =
  Alcotest.run "icc"
    [ ( "model",
        [ Alcotest.test_case "gemver: no fusion, serial reductions" `Quick
            test_gemver_no_fusion_serial_reductions;
          Alcotest.test_case "lu: serial (non-rectangular)" `Quick test_lu_serial;
          Alcotest.test_case "advect: pairwise fusion" `Quick
            test_advect_pairwise_fusion;
          Alcotest.test_case "gemsfdtd: no fusion" `Quick test_gemsfdtd_no_fusion;
          Alcotest.test_case "tce: no fusion" `Quick test_tce_no_fusion;
          Alcotest.test_case "swim: legal" `Quick test_swim_fusion_within_dims;
          Alcotest.test_case "wupwise: serial reduction" `Quick
            test_wupwise_reduction_not_parallel ] ) ]
