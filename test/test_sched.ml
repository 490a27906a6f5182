(* Unit tests for the schedule representation (Pluto.Sched) and the
   Fusion.Model dispatch layer. *)

open Pluto

let test_row_as_hyp () =
  let h = Sched.row_as_hyp ~depth:2 ~np:1 (Sched.Beta 3) in
  Alcotest.(check (array int)) "beta as hyp" [| 0; 0; 0; 3 |] h;
  let h2 = Sched.row_as_hyp ~depth:2 ~np:1 (Sched.Hyp [| 1; 0; 0; 2 |]) in
  Alcotest.(check (array int)) "hyp passthrough" [| 1; 0; 0; 2 |] h2;
  Alcotest.check_raises "width check" (Invalid_argument "Sched.row_as_hyp: width")
    (fun () -> ignore (Sched.row_as_hyp ~depth:1 ~np:1 (Sched.Hyp [| 1; 0; 0; 2 |])))

let test_phi_diff () =
  (* src row: i (depth 2), dst row: j + 1 (depth 1), np = 1:
     diff over [s0 s1 t0 p 1] = -s0*1 ... dst(j+1) - src(i) *)
  let src = [| 1; 0; 0; 0 |] (* i, over (i,j,N,1) *) in
  let dst = [| 1; 0; 1 |] (* k + 1, over (k,N,1) *) in
  let v = Sched.phi_diff ~d1:2 ~d2:1 ~np:1 src dst in
  let expect = Linalg.Vec.of_ints [| -1; 0; 1; 0; 1 |] in
  Alcotest.(check bool) "phi diff" true (Linalg.Vec.equal v expect)

(* --- Fusion.Model dispatch --------------------------------------------- *)

let test_model_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (Fusion.Model.of_name (Fusion.Model.name m) = m))
    Fusion.Model.all;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Fusion.Model.of_name "megafuse"))

(* every model's transformed program computes what the original does *)
let test_model_pipeline () =
  let prog = Kernels.Gemver.program ~n:8 () in
  let params = prog.Scop.Program.default_params in
  let reference = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run_original prog reference ~params;
  List.iter
    (fun m ->
      let opt = Fusion.Model.optimize m prog in
      let transformed = Machine.Interp.init_memory prog ~params in
      Machine.Interp.run prog opt.Fusion.Model.ast transformed ~params;
      match Machine.Interp.first_diff reference transformed with
      | None -> ()
      | Some d ->
        Alcotest.failf "%s semantic mismatch: %s" (Fusion.Model.name m) d)
    Fusion.Model.all

let test_model_optimized_fields () =
  let prog = Kernels.Gemver.program ~n:8 () in
  let icc = Fusion.Model.optimize Fusion.Model.Icc prog in
  Alcotest.(check bool) "icc has icc result" true (icc.Fusion.Model.icc <> None);
  Alcotest.(check bool) "icc has no scheduler" true
    (icc.Fusion.Model.scheduler = None);
  let wf = Fusion.Model.optimize Fusion.Model.Wisefuse prog in
  Alcotest.(check bool) "wisefuse has scheduler" true
    (wf.Fusion.Model.scheduler <> None)

let () =
  Alcotest.run "sched"
    [ ( "rows",
        [ Alcotest.test_case "row_as_hyp" `Quick test_row_as_hyp;
          Alcotest.test_case "phi_diff" `Quick test_phi_diff ] );
      ( "model",
        [ Alcotest.test_case "name roundtrip" `Quick test_model_roundtrip;
          Alcotest.test_case "pipeline all models" `Quick test_model_pipeline;
          Alcotest.test_case "optimized fields" `Quick test_model_optimized_fields ] ) ]
