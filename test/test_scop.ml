(* Tests for the SCoP IR and the kernel-building DSL. *)

open Scop
open Scop.Build

(* gemver, exactly as in Figure 1(a) of the paper:
     for i for j: S1: A[i][j] = A[i][j] + u1[i]*v1[j] + u2[i]*v2[j]
     for i for j: S2: x[i] = x[i] + beta*A[j][i]*y[j]
     for i:       S3: x[i] = x[i] + z[i]
     for i for j: S4: w[i] = w[i] + alpha*A[i][j]*x[j]     *)
let gemver () =
  let ctx = create ~name:"gemver" ~params:[ ("N", 40) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n ] in
  let u1 = array ctx "u1" [ n ] and v1 = array ctx "v1" [ n ] in
  let u2 = array ctx "u2" [ n ] and v2 = array ctx "v2" [ n ] in
  let x = array ctx "x" [ n ] and y = array ctx "y" [ n ] in
  let z = array ctx "z" [ n ] and w = array ctx "w" [ n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S1" a [ i; j ]
            (a.%([ i; j ])
            +: (u1.%([ i ]) *: v1.%([ j ]))
            +: (u2.%([ i ]) *: v2.%([ j ])))));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S2" x [ i ]
            (x.%([ i ]) +: (f 2.0 *: a.%([ j; i ]) *: y.%([ j ])))));
  loop ctx "i" ~lb ~ub (fun i ->
      assign ctx "S3" x [ i ] (x.%([ i ]) +: z.%([ i ])));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S4" w [ i ]
            (w.%([ i ]) +: (f 3.0 *: a.%([ i; j ]) *: x.%([ j ])))));
  finish ctx

let test_build_shape () =
  let p = gemver () in
  Alcotest.(check int) "statements" 4 (Array.length p.stmts);
  Alcotest.(check int) "params" 1 (Program.nparams p);
  Alcotest.(check (list string)) "names"
    [ "S1"; "S2"; "S3"; "S4" ]
    (Array.to_list (Array.map (fun (s : Statement.t) -> s.name) p.stmts));
  Alcotest.(check (list int)) "depths" [ 2; 2; 1; 2 ]
    (Array.to_list (Array.map Statement.depth p.stmts));
  Alcotest.(check int) "max depth" 2 (Program.max_depth p)

let test_domains () =
  let p = gemver () in
  let s1 = p.stmts.(0) in
  (* domain over (i, j, N): 0 <= i,j <= N-1; check with N = 40 *)
  Alcotest.(check bool) "inside" true
    (Poly.Polyhedron.contains_int s1.domain [| 0; 39; 40 |]);
  Alcotest.(check bool) "outside high" false
    (Poly.Polyhedron.contains_int s1.domain [| 0; 40; 40 |]);
  Alcotest.(check bool) "outside low" false
    (Poly.Polyhedron.contains_int s1.domain [| -1; 0; 40 |]);
  let s3 = p.stmts.(2) in
  Alcotest.(check int) "s3 domain dim" 2 (Poly.Polyhedron.dim s3.domain)

let test_beta_and_order () =
  let p = gemver () in
  let s1 = p.stmts.(0) and s2 = p.stmts.(1) and s3 = p.stmts.(2) in
  (* distinct outer loops: common prefix 0 *)
  Alcotest.(check int) "no common loops" 0 (Statement.common_loops s1 s2);
  Alcotest.(check int) "self common" 2 (Statement.common_loops s1 s1);
  Alcotest.(check bool) "S1 before S2" true (Statement.textual_before s1 s2);
  Alcotest.(check bool) "S2 before S3" true (Statement.textual_before s2 s3);
  Alcotest.(check bool) "not S3 before S1" false (Statement.textual_before s3 s1);
  Alcotest.(check bool) "irreflexive" false (Statement.textual_before s1 s1);
  (* beta: S1 = [0;0;0], S2 = [1;0;0], S3 = [2;0], S4 = [3;0;0] *)
  Alcotest.(check (array int)) "beta S1" [| 0; 0; 0 |] s1.beta;
  Alcotest.(check (array int)) "beta S2" [| 1; 0; 0 |] s2.beta;
  Alcotest.(check (array int)) "beta S3" [| 2; 0 |] s3.beta;
  Alcotest.(check (array int)) "beta S4" [| 3; 0; 0 |] p.stmts.(3).beta

let test_accesses () =
  let p = gemver () in
  let s2 = p.stmts.(1) in
  (* S2 writes x[i], reads x[i], A[j][i], y[j] *)
  Alcotest.(check string) "write array" "x" s2.write.array;
  Alcotest.(check int) "write arity" 1 (Access.arity s2.write);
  let reads = Statement.reads s2 in
  Alcotest.(check (list string)) "read arrays" [ "x"; "A"; "y" ]
    (List.map (fun (a : Access.t) -> a.array) reads);
  (* A[j][i]: row for j is [0;1|0|0], row for i is [1;0|0|0] over (i,j,N,1) *)
  let a_access = List.nth reads 1 in
  Alcotest.(check (array (array int))) "transposed access"
    [| [| 0; 1; 0; 0 |]; [| 1; 0; 0; 0 |] |]
    a_access.idx;
  (* evaluation *)
  Alcotest.(check (array int)) "eval" [| 7; 3 |]
    (Access.eval a_access ~iters:[| 3; 7 |] ~params:[| 40 |])

let test_expr () =
  let p = gemver () in
  let s1 = p.stmts.(0) in
  Alcotest.(check int) "op count S1" 4 (Expr.op_count s1.rhs);
  (* evaluate S1's rhs with every load returning 2.0: 2 + 2*2 + 2*2 = 10 *)
  Alcotest.(check (float 1e-9)) "eval" 10.0
    (Expr.eval s1.rhs ~read:(fun _ -> 2.0))

let test_triangular_domain () =
  (* lu-style triangular loop: for k in 0..n-1, for j in k+1..n-1 *)
  let ctx = create ~name:"tri" ~params:[ ("N", 10) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n ] in
  loop ctx "k" ~lb:(ci 0) ~ub:(n -~ ci 1) (fun k ->
      loop ctx "j" ~lb:(k +~ ci 1) ~ub:(n -~ ci 1) (fun j ->
          assign ctx "S" a [ k; j ] (a.%([ k; j ]) *: f 0.5)));
  let p = finish ctx in
  let d = p.stmts.(0).domain in
  Alcotest.(check bool) "j > k in" true (Poly.Polyhedron.contains_int d [| 2; 3; 10 |]);
  Alcotest.(check bool) "j = k out" false
    (Poly.Polyhedron.contains_int d [| 3; 3; 10 |]);
  Alcotest.(check bool) "j < k out" false
    (Poly.Polyhedron.contains_int d [| 4; 3; 10 |])

let test_validation_errors () =
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Build: arity mismatch writing A")
    (fun () ->
      let ctx = create ~name:"bad" ~params:[ ("N", 4) ] in
      let n = param ctx "N" in
      let a = array ctx "A" [ n; n ] in
      loop ctx "i" ~lb:(ci 0) ~ub:n (fun i ->
          assign ctx "S" a [ i ] (f 1.0)));
  Alcotest.check_raises "iterator in extent"
    (Invalid_argument "Build.array: extent mentions an iterator")
    (fun () ->
      let ctx = create ~name:"bad2" ~params:[ ("N", 4) ] in
      let n = param ctx "N" in
      loop ctx "i" ~lb:(ci 0) ~ub:n (fun i ->
          ignore (array ctx "B" [ i ])))

let test_scoped_iterator_escape () =
  Alcotest.check_raises "escaped iterator"
    (Invalid_argument "Build: iterator used outside its loop")
    (fun () ->
      let ctx = create ~name:"bad3" ~params:[ ("N", 4) ] in
      let n = param ctx "N" in
      let a = array ctx "A" [ n ] in
      let leaked = ref (ci 0) in
      loop ctx "i" ~lb:(ci 0) ~ub:n (fun i -> leaked := i);
      loop ctx "j" ~lb:(ci 0) ~ub:n (fun _ ->
          assign ctx "S" a [ !leaked ] (f 1.0)))

let test_array_extent () =
  let ctx = create ~name:"ext" ~params:[ ("N", 10); ("M", 5) ] in
  let n = param ctx "N" and m = param ctx "M" in
  let _a = array ctx "A" [ n +~ ci 2; m ] in
  loop ctx "i" ~lb:(ci 0) ~ub:n (fun i ->
      assign ctx "S" _a [ i; ci 0 ] (f 0.0));
  let p = finish ctx in
  let decl = List.find (fun d -> d.Program.array_name = "A") p.Program.arrays in
  Alcotest.(check (array int)) "extents" [| 12; 5 |]
    (Program.array_extent decl ~params:[| 10; 5 |])

let () =
  Alcotest.run "scop"
    [ ( "build",
        [ Alcotest.test_case "shape" `Quick test_build_shape;
          Alcotest.test_case "domains" `Quick test_domains;
          Alcotest.test_case "beta & textual order" `Quick test_beta_and_order;
          Alcotest.test_case "accesses" `Quick test_accesses;
          Alcotest.test_case "expr" `Quick test_expr;
          Alcotest.test_case "triangular domain" `Quick test_triangular_domain;
          Alcotest.test_case "validation" `Quick test_validation_errors;
          Alcotest.test_case "iterator escape" `Quick test_scoped_iterator_escape;
          Alcotest.test_case "array extent" `Quick test_array_extent ] ) ]
