(* Tests for dependence analysis and the DDG / SCC machinery. *)

open Scop
open Deps
open Scop.Build

let gemver () =
  let ctx = create ~name:"gemver" ~params:[ ("N", 40) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n ] in
  let u1 = array ctx "u1" [ n ] and v1 = array ctx "v1" [ n ] in
  let x = array ctx "x" [ n ] and y = array ctx "y" [ n ] in
  let z = array ctx "z" [ n ] and w = array ctx "w" [ n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S1" a [ i; j ] (a.%([ i; j ]) +: (u1.%([ i ]) *: v1.%([ j ])))));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S2" x [ i ] (x.%([ i ]) +: (a.%([ j; i ]) *: y.%([ j ])))));
  loop ctx "i" ~lb ~ub (fun i ->
      assign ctx "S3" x [ i ] (x.%([ i ]) +: z.%([ i ])));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S4" w [ i ] (w.%([ i ]) +: (a.%([ i; j ]) *: x.%([ j ])))));
  finish ctx

let find_dep deps ~src ~dst ~kind ~array =
  List.filter
    (fun (d : Dep.t) ->
      d.src = src && d.dst = dst && d.kind = kind
      && d.src_access.Access.array = array)
    deps

let test_gemver_flow_deps () =
  let p = gemver () in
  let deps = Dep.analyze p in
  (* S1 writes A, S2 reads A (transposed): flow S1 -> S2 *)
  Alcotest.(check bool) "S1->S2 flow on A" true
    (find_dep deps ~src:0 ~dst:1 ~kind:Dep.Flow ~array:"A" <> []);
  (* S2 -> S3 flow on x *)
  Alcotest.(check bool) "S2->S3 flow on x" true
    (find_dep deps ~src:1 ~dst:2 ~kind:Dep.Flow ~array:"x" <> []);
  (* S3 -> S4 flow on x *)
  Alcotest.(check bool) "S3->S4 flow on x" true
    (find_dep deps ~src:2 ~dst:3 ~kind:Dep.Flow ~array:"x" <> []);
  (* S1 -> S4 flow on A *)
  Alcotest.(check bool) "S1->S4 flow on A" true
    (find_dep deps ~src:0 ~dst:3 ~kind:Dep.Flow ~array:"A" <> []);
  (* no dependence backward in program order *)
  Alcotest.(check bool) "nothing into S1" true
    (List.for_all (fun (d : Dep.t) -> not (Dep.is_true d) || d.dst <> 0 || d.src = 0) deps)

let test_gemver_self_dep () =
  let p = gemver () in
  let deps = Dep.analyze p in
  (* S2: x[i] += ... over j: flow S2 -> S2 carried by the j loop (level 1) *)
  let self = find_dep deps ~src:1 ~dst:1 ~kind:Dep.Flow ~array:"x" in
  Alcotest.(check bool) "self flow on x" true
    (List.exists (fun (d : Dep.t) -> d.level = Dep.Carried 1) self);
  (* not carried by the i loop: x[i] differs across i *)
  Alcotest.(check bool) "not carried at level 0" true
    (List.for_all (fun (d : Dep.t) -> d.level <> Dep.Carried 0) self)

let test_gemver_anti_output () =
  let p = gemver () in
  let deps = Dep.analyze p in
  (* S2 reads x[i] then S3 writes x[i]: anti S2 -> S3 *)
  Alcotest.(check bool) "anti S2->S3 on x" true
    (find_dep deps ~src:1 ~dst:2 ~kind:Dep.Anti ~array:"x" <> []);
  (* S2 writes x then S3 writes x: output S2 -> S3 *)
  Alcotest.(check bool) "output S2->S3 on x" true
    (find_dep deps ~src:1 ~dst:2 ~kind:Dep.Output ~array:"x" <> [])

let test_gemver_input_deps () =
  let p = gemver () in
  let deps = Dep.analyze p in
  (* S2 and S4 both read A: input dependence *)
  Alcotest.(check bool) "input S2->S4 on A" true
    (find_dep deps ~src:1 ~dst:3 ~kind:Dep.Input ~array:"A" <> []);
  Alcotest.(check bool) "exactly the input deps are not true deps" true
    (List.for_all (fun (d : Dep.t) -> Dep.is_true d = (d.kind <> Dep.Input)) deps)

(* Every dependence polyhedron must contain a witness which (a) lies in
   both domains, (b) accesses the same cell, (c) respects the level
   semantics. This is the soundness check for the polyhedron builder. *)
let test_dep_witnesses () =
  let p = gemver () in
  let deps = Dep.analyze p in
  Alcotest.(check bool) "some deps" true (deps <> []);
  List.iter
    (fun (d : Dep.t) ->
      match Ilp.Bb.integer_point d.poly with
      | None ->
        Alcotest.fail
          (Format.asprintf "dependence %a has empty polyhedron" Dep.pp d)
      | Some pt ->
        let src = p.stmts.(d.src) and dst = p.stmts.(d.dst) in
        let d1 = Statement.depth src and d2 = Statement.depth dst in
        let np = Program.nparams p in
        let s_iters = Array.sub pt 0 d1 in
        let t_iters = Array.sub pt d1 d2 in
        let params = Array.sub pt (d1 + d2) np in
        Alcotest.(check bool) "src in domain" true
          (Poly.Polyhedron.contains_int src.domain (Array.append s_iters params));
        Alcotest.(check bool) "dst in domain" true
          (Poly.Polyhedron.contains_int dst.domain (Array.append t_iters params));
        Alcotest.(check (array int)) "same cell"
          (Access.eval d.src_access ~iters:s_iters ~params)
          (Access.eval d.dst_access ~iters:t_iters ~params);
        (match d.level with
        | Dep.Carried l ->
          for k = 0 to l - 1 do
            Alcotest.(check int) "equal prefix" s_iters.(k) t_iters.(k)
          done;
          Alcotest.(check bool) "strictly before at level" true
            (s_iters.(l) < t_iters.(l))
        | Dep.Independent ->
          let c = Statement.common_loops src dst in
          for k = 0 to c - 1 do
            Alcotest.(check int) "equal common iters" s_iters.(k) t_iters.(k)
          done;
          Alcotest.(check bool) "textual order" true
            (Statement.textual_before src dst)))
    deps

(* --- DDG & SCC ---------------------------------------------------------- *)

let test_ddg_gemver () =
  let p = gemver () in
  let deps = Dep.analyze p in
  let g = Ddg.build p deps in
  let edge a b = List.mem b g.Ddg.succ.(a) in
  Alcotest.(check bool) "edge S1->S2" true (edge 0 1);
  Alcotest.(check bool) "edge S2->S3" true (edge 1 2);
  Alcotest.(check bool) "no edge S2->S1" false (edge 1 0);
  Alcotest.(check bool) "input S2~S4" true
    (List.exists
       (fun (d : Dep.t) ->
         d.kind = Dep.Input && ((d.src = 1 && d.dst = 3) || (d.src = 3 && d.dst = 1)))
       g.Ddg.deps);
  (* all SCCs are singletons here *)
  let scc = Ddg.scc_kosaraju g in
  Alcotest.(check int) "scc count" 4 (Ddg.scc_count scc);
  Alcotest.(check (array int)) "topological ids" [| 0; 1; 2; 3 |] scc

(* two statements forming a dependence cycle across iterations:
   for i: S1: a[i] = b2[i];  S2: b2[i+1] = a[i]
   S1 -> S2 (flow on a, independent), S2 -> S1 (flow on b2, carried) *)
let cyclic () =
  let ctx = create ~name:"cyc" ~params:[ ("N", 20) ] in
  let n = param ctx "N" in
  let a = array ctx "a" [ n +~ ci 2 ] in
  let b2 = array ctx "b2" [ n +~ ci 2 ] in
  loop ctx "i" ~lb:(ci 1) ~ub:(n -~ ci 1) (fun i ->
      assign ctx "S1" a [ i ] (b2.%([ i ]));
      assign ctx "S2" b2 [ i +~ ci 1 ] (a.%([ i ])));
  finish ctx

let test_scc_cycle () =
  let p = cyclic () in
  let deps = Dep.analyze p in
  let g = Ddg.build p deps in
  Alcotest.(check bool) "S1->S2" true (List.mem 1 g.Ddg.succ.(0));
  Alcotest.(check bool) "S2->S1" true (List.mem 0 g.Ddg.succ.(1));
  let scc = Ddg.scc_kosaraju g in
  Alcotest.(check int) "one scc" 1 (Ddg.scc_count scc);
  Alcotest.(check int) "same id" scc.(0) scc.(1)

(* random digraphs: Kosaraju and Tarjan give the same partition and a
   topological numbering of the condensation *)
let arb_digraph =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* edges = list_size (int_range 0 20) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      return (n, edges))

let build_graph (n, edges) =
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if not (List.mem b succ.(a)) then succ.(a) <- b :: succ.(a);
      if not (List.mem a pred.(b)) then pred.(b) <- a :: pred.(b))
    edges;
  { Ddg.n; succ; pred; deps = [] }

let same_partition scc1 scc2 =
  let n = Array.length scc1 in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if scc1.(i) = scc1.(j) <> (scc2.(i) = scc2.(j)) then ok := false
    done
  done;
  !ok

let prop_scc_agree =
  QCheck.Test.make ~name:"kosaraju and tarjan agree" ~count:300 arb_digraph
    (fun spec ->
      let g = build_graph spec in
      same_partition (Ddg.scc_kosaraju g) (Ddg.scc_tarjan g))

let prop_scc_topological =
  QCheck.Test.make ~name:"scc ids are topologically ordered" ~count:300 arb_digraph
    (fun spec ->
      let g = build_graph spec in
      let check scc =
        let ok = ref true in
        Array.iteri
          (fun v succs ->
            List.iter (fun w -> if scc.(w) < scc.(v) then ok := false) succs)
          g.Ddg.succ;
        !ok
      in
      check (Ddg.scc_kosaraju g) && check (Ddg.scc_tarjan g))

let prop_scc_mutual_reachability =
  QCheck.Test.make ~name:"same scc iff mutually reachable" ~count:200 arb_digraph
    (fun spec ->
      let g = build_graph spec in
      let n = g.Ddg.n in
      (* Floyd-Warshall reachability *)
      let reach = Array.make_matrix n n false in
      for v = 0 to n - 1 do
        reach.(v).(v) <- true;
        List.iter (fun w -> reach.(v).(w) <- true) g.Ddg.succ.(v)
      done;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let scc = Ddg.scc_kosaraju g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if scc.(i) = scc.(j) <> (reach.(i).(j) && reach.(j).(i)) then ok := false
        done
      done;
      !ok)

let test_components () =
  let g = build_graph (4, [ (0, 1); (1, 0); (2, 3) ]) in
  let scc = Ddg.scc_kosaraju g in
  let comps = Ddg.components scc in
  Alcotest.(check int) "three sccs" 3 (Array.length comps);
  Alcotest.(check bool) "pair component" true
    (Array.exists (fun c -> c = [ 0; 1 ]) comps)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "deps"
    [ ( "dep",
        [ Alcotest.test_case "gemver flow deps" `Quick test_gemver_flow_deps;
          Alcotest.test_case "self dep levels" `Quick test_gemver_self_dep;
          Alcotest.test_case "anti/output" `Quick test_gemver_anti_output;
          Alcotest.test_case "input deps" `Quick test_gemver_input_deps;
          Alcotest.test_case "witness soundness" `Quick test_dep_witnesses ] );
      ( "ddg",
        [ Alcotest.test_case "gemver ddg" `Quick test_ddg_gemver;
          Alcotest.test_case "cycle -> one scc" `Quick test_scc_cycle;
          Alcotest.test_case "components" `Quick test_components ] );
      ( "scc-props",
        qt [ prop_scc_agree; prop_scc_topological; prop_scc_mutual_reachability ] ) ]
