(* Tests for the code generator: bounds, guards, identity schedules,
   and the master property - semantic equivalence of every transformed
   program with its source. *)

open Codegen

let gemver () = Kernels.Gemver.program ~n:14 ()
let advect () = Kernels.Advect.program ~n:10 ()

(* count statement instances executed by an AST *)
let count_instances prog ast =
  let params = prog.Scop.Program.default_params in
  let mem = Machine.Interp.init_memory prog ~params in
  let count = ref 0 in
  Machine.Interp.run ~on_stmt:(fun _ -> incr count) prog ast mem ~params;
  !count

let expected_instances (prog : Scop.Program.t) =
  let params = prog.default_params in
  Array.fold_left
    (fun acc (s : Scop.Statement.t) ->
      let d = Scop.Statement.depth s in
      let np = Array.length params in
      (* brute-force count the domain *)
      let lo = Array.make (d + np) 0 in
      let hi = Array.make (d + np) 0 in
      for i = 0 to d - 1 do
        lo.(i) <- -1;
        hi.(i) <- params.(0) + 2
      done;
      for p = 0 to np - 1 do
        lo.(d + p) <- params.(p);
        hi.(d + p) <- params.(p)
      done;
      acc + List.length (Poly.Polyhedron.integer_points ~lo ~hi s.domain))
    0 prog.stmts

let test_identity_counts () =
  let prog = gemver () in
  let ast = Scan.original prog ~deps:[] in
  Alcotest.(check int) "identity executes every instance"
    (expected_instances prog) (count_instances prog ast)

let test_transformed_counts () =
  let prog = gemver () in
  let res = Pluto.Scheduler.run Pluto.Scheduler.smartfuse prog in
  let ast = Scan.of_result res in
  Alcotest.(check int) "transforms preserve instance count"
    (expected_instances prog) (count_instances prog ast)

let test_identity_semantics () =
  (* the identity schedule reproduces the original order: executing it
     twice from the same initial memory must agree with itself and with
     a shifted-schedule run *)
  let prog = advect () in
  let params = prog.Scop.Program.default_params in
  let m1 = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run_original prog m1 ~params;
  let m2 = Machine.Interp.init_memory prog ~params in
  Machine.Interp.run_original prog m2 ~params;
  Alcotest.(check (option string)) "deterministic" None (Machine.Interp.first_diff m1 m2)

(* the master integration test: every kernel x every model *)
let semantic_equivalence_cases =
  let small =
    [ ("gemver", Kernels.Gemver.program ~n:10 ());
      ("advect", Kernels.Advect.program ~n:8 ());
      ("swim", Kernels.Swim.program ~n:8 ());
      ("lu", Kernels.Lu.program ~n:10 ());
      ("tce", Kernels.Tce.program ~n:6 ());
      ("gemsfdtd", Kernels.Gemsfdtd.program ~n:5 ());
      ("applu", Kernels.Applu.program ~n:6 ());
      ("bt", Kernels.Bt.program ~n:6 ());
      ("sp", Kernels.Sp.program ~n:6 ());
      ("wupwise", Kernels.Wupwise.program ~n:8 ()) ]
  in
  let models =
    [ Pluto.Scheduler.nofuse; Pluto.Scheduler.smartfuse; Pluto.Scheduler.maxfuse;
      Fusion.Wisefuse.config ]
  in
  List.concat_map
    (fun (name, prog) ->
      let params = prog.Scop.Program.default_params in
      let reference = lazy (
        let m = Machine.Interp.init_memory prog ~params in
        Machine.Interp.run_original prog m ~params;
        m)
      in
      let polyhedral =
        List.map
          (fun cfg ->
            let tag = name ^ "/" ^ cfg.Pluto.Scheduler.name in
            Alcotest.test_case tag `Quick (fun () ->
                let res = Pluto.Scheduler.run cfg prog in
                let ast = Scan.of_result res in
                let m = Machine.Interp.init_memory prog ~params in
                Machine.Interp.run prog ast m ~params;
                match Machine.Interp.first_diff (Lazy.force reference) m with
                | None -> ()
                | Some d -> Alcotest.failf "%s differs: %s" tag d))
          models
      in
      let icc_case =
        Alcotest.test_case (name ^ "/icc") `Quick (fun () ->
            let r = Icc.Icc_model.run prog in
            let m = Machine.Interp.init_memory prog ~params in
            Machine.Interp.run prog r.Icc.Icc_model.ast m ~params;
            match Machine.Interp.first_diff (Lazy.force reference) m with
            | None -> ()
            | Some d -> Alcotest.failf "%s/icc differs: %s" name d)
      in
      polyhedral @ [ icc_case ])
    small

let test_bound_eval () =
  (* ceil/floor division in bounds: a loop bounded below and above by
     the same fraction ranges from its ceiling to its floor *)
  let range b ~outer =
    Ast.loop_range
      { Ast.level = 1; lb_groups = [ [ b ] ]; ub_groups = [ [ b ] ];
        group_stmts = [ 0 ]; par = Ast.Sequential; body = Ast.Seq [] }
      ~outer ~params:[| 0 |]
  in
  let b = { Ast.num = [| 1; 0; -1 |]; den = 2 } in
  (* (y0 - 1) / 2 with one outer var and one param *)
  Alcotest.(check int) "ceil" 3 (fst (range b ~outer:[| 7 |]));
  Alcotest.(check int) "floor" 3 (snd (range b ~outer:[| 7 |]));
  Alcotest.(check int) "ceil round up" 3 (fst (range b ~outer:[| 6 |]));
  Alcotest.(check int) "floor round down" 2 (snd (range b ~outer:[| 6 |]));
  let bneg = { Ast.num = [| -1; 0; 0 |]; den = 2 } in
  Alcotest.(check int) "negative ceil" (-3) (fst (range bneg ~outer:[| 7 |]));
  Alcotest.(check int) "negative floor" (-4) (snd (range bneg ~outer:[| 7 |]))

let test_instance_inversion () =
  (* interchange transform: y = (j, i); recover (i, j) from y *)
  let inst =
    {
      Ast.stmt_id = 0;
      sel_levels = [| 0; 1 |];
      hinv_num = [| [| 0; 1 |]; [| 1; 0 |] |];
      det = 1;
      g = [| [| 0; 0 |]; [| 0; 0 |] |];
      const_rows = [||];
    }
  in
  (match Ast.instance_iters inst ~y:[| 5; 9 |] ~params:[| 0 |] with
  | Some x -> Alcotest.(check (array int)) "interchange" [| 9; 5 |] x
  | None -> Alcotest.fail "guard rejected");
  (* skew with determinant 2: x = (y0 + y1)/2 etc - reject odd points *)
  let skew =
    {
      Ast.stmt_id = 0;
      sel_levels = [| 0; 1 |];
      hinv_num = [| [| 1; 1 |]; [| 1; -1 |] |];
      det = 2;
      g = [| [| 0 |]; [| 0 |] |];
      const_rows = [||];
    }
  in
  (match Ast.instance_iters skew ~y:[| 3; 1 |] ~params:[||] with
  | Some x -> Alcotest.(check (array int)) "even point" [| 2; 1 |] x
  | None -> Alcotest.fail "even point rejected");
  Alcotest.(check bool) "odd point rejected" true
    (Ast.instance_iters skew ~y:[| 3; 2 |] ~params:[||] = None);
  (* constant-row guard *)
  let guarded =
    { inst with const_rows = [| (2, [| 0; 5 |]) |] }
  in
  Alcotest.(check bool) "const row holds" true
    (Ast.instance_iters guarded ~y:[| 1; 2; 5 |] ~params:[| 0 |] <> None);
  Alcotest.(check bool) "const row fails" true
    (Ast.instance_iters guarded ~y:[| 1; 2; 4 |] ~params:[| 0 |] = None)

let test_pretty_print_runs () =
  let prog = gemver () in
  let res = Pluto.Scheduler.run Pluto.Scheduler.smartfuse prog in
  let ast = Scan.of_result res in
  let s = Format.asprintf "%a" (Ast.pp prog) ast in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions a loop" true (contains s "for (");
  Alcotest.(check bool) "mentions a statement" true (contains s "S1")

(* The display printers over every registry kernel x model at its
   model size, one MD5 per printer: a change to the shared affine
   writer or the bound printer that moves a byte fails here. *)
let test_printers_pinned () =
  let progs = Buffer.create 4096 and scheds = Buffer.create 4096 in
  let asts = Buffer.create 4096 and cs = Buffer.create 4096 in
  List.iter
    (fun (e : Kernels.Registry.entry) ->
      let prog = e.program () in
      Buffer.add_string progs (Format.asprintf "%a@." Scop.Program.pp prog);
      List.iter
        (fun m ->
          let opt = Fusion.Model.optimize m prog in
          let _, _, sched = Fusion.Model.artifacts opt in
          let name = e.name ^ "_" ^ Fusion.Model.name m in
          Buffer.add_string scheds (Format.asprintf "%a@." (Pluto.Sched.pp prog) sched);
          Buffer.add_string asts (Format.asprintf "%a@." (Ast.pp prog) opt.ast);
          Buffer.add_string cs (Cprint.program ~name prog opt.ast))
        Fusion.Model.all)
    Kernels.Registry.all;
  List.iter
    (fun (what, buf, md5) ->
      Alcotest.(check string) what md5
        (Digest.to_hex (Digest.string (Buffer.contents buf))))
    [ ("Program.pp", progs, "f4dff31dd49908ad0bfc51bbf6d1ad7b");
      ("Sched.pp", scheds, "79e5b7b0b65ec7409320ae794c0852c7");
      ("Ast.pp", asts, "3b26956a5a8229f6ed1736ab7d3c9a4b");
      ("Cprint.program", cs, "e7d5dd28e75a0169139e8410254c8915") ]

let () =
  Alcotest.run "codegen"
    [ ( "structure",
        [ Alcotest.test_case "identity instance count" `Quick test_identity_counts;
          Alcotest.test_case "transformed instance count" `Quick
            test_transformed_counts;
          Alcotest.test_case "identity determinism" `Quick test_identity_semantics;
          Alcotest.test_case "bound evaluation" `Quick test_bound_eval;
          Alcotest.test_case "instance inversion" `Quick test_instance_inversion;
          Alcotest.test_case "pretty printer" `Quick test_pretty_print_runs;
          Alcotest.test_case "printers pinned" `Quick test_printers_pinned ] );
      ("semantic-equivalence", semantic_equivalence_cases) ]
