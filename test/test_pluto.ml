(* Tests for the Pluto-style scheduler: Farkas spaces, hyperplanes,
   fusion models, satisfaction analysis. Uses the paper's two running
   examples (gemver, advect). *)

open Scop
open Scop.Build
open Deps
open Pluto

let gemver () =
  let ctx = create ~name:"gemver" ~params:[ ("N", 20) ] in
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

(* advect (Section 3 / Figure 4): three producers and a consumer whose
   stencil reads force either shifting (maxfuse) or distribution
   (Algorithm 2) *)
let advect () =
  let ctx = create ~name:"advect" ~params:[ ("N", 12) ] in
  let n = param ctx "N" in
  let u = array ctx "u" [ n +~ ci 2; n +~ ci 2 ] in
  let v = array ctx "v" [ n +~ ci 2; n +~ ci 2 ] in
  let w0 = array ctx "w0" [ n +~ ci 2; n +~ ci 2 ] in
  let cx = array ctx "cx" [ n +~ ci 2; n +~ ci 2 ] in
  let cy = array ctx "cy" [ n +~ ci 2; n +~ ci 2 ] in
  let cz = array ctx "cz" [ n +~ ci 2; n +~ ci 2 ] in
  let adv = array ctx "adv" [ n +~ ci 2; n +~ ci 2 ] in
  let lb = ci 1 and ub = n in
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S1" cx [ i; j ] (u.%([ i; j ]) +: u.%([ i; j +~ ci 1 ]))));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S2" cy [ i; j ] (v.%([ i; j ]) +: v.%([ i +~ ci 1; j ]))));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S3" cz [ i; j ] (w0.%([ i; j ]) *: f 2.0)));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S4" adv [ i; j ]
            (cx.%([ i; j ]) -: cx.%([ i; j +~ ci 1 ])
            +: (cy.%([ i; j ]) -: cy.%([ i +~ ci 1; j ]))
            +: cz.%([ i; j ]))));
  finish ctx

(* --- Farkas spaces ------------------------------------------------------ *)

(* For gemver's S1 -> S2 flow on A, legal hyperplane pairs must satisfy
   the legality space; the interchange pair (S1 = j, S2 = i) does, the
   identity pair (S1 = i, S2 = i) does not. *)
let test_farkas_legality () =
  let p = gemver () in
  let deps = Dep.analyze p in
  let d =
    List.find
      (fun (d : Dep.t) ->
        d.src = 0 && d.dst = 1 && d.kind = Dep.Flow && d.src_access.Access.array = "A")
      deps
  in
  let space =
    Farkas.legality_space ~memo:(Farkas.memo ()) ~d1:2 ~d2:2 ~np:1 d.poly
  in
  (* local layout: [cS1_i; cS1_j; cS1_0; cS2_i; cS2_j; cS2_0; u; w] *)
  let point l = Array.map Linalg.Q.of_int (Array.of_list l) in
  Alcotest.(check bool) "interchange legal" true
    (Poly.Polyhedron.contains space (point [ 0; 1; 0; 1; 0; 0; 0; 0 ]));
  Alcotest.(check bool) "identity illegal" false
    (Poly.Polyhedron.contains space (point [ 1; 0; 0; 1; 0; 0; 0; 0 ]));
  Alcotest.(check bool) "inner pair legal" true
    (Poly.Polyhedron.contains space (point [ 1; 0; 0; 0; 1; 0; 0; 0 ]))

let test_farkas_bounding () =
  let p = gemver () in
  let deps = Dep.analyze p in
  let d =
    List.find
      (fun (d : Dep.t) ->
        d.src = 0 && d.dst = 1 && d.kind = Dep.Flow && d.src_access.Access.array = "A")
      deps
  in
  let space =
    Farkas.bounding_space ~memo:(Farkas.memo ()) ~d1:2 ~d2:2 ~np:1 d.poly
  in
  let point l = Array.map Linalg.Q.of_int (Array.of_list l) in
  (* interchange pair has delta = 0 everywhere: u = w = 0 suffices *)
  Alcotest.(check bool) "zero communication bound" true
    (Poly.Polyhedron.contains space (point [ 0; 1; 0; 1; 0; 0; 0; 0 ]));
  (* the pair (S1 = j, S2 = j) has delta = i - j, up to N-1: u=0,w=0 fails *)
  Alcotest.(check bool) "distance needs u" false
    (Poly.Polyhedron.contains space (point [ 0; 1; 0; 0; 1; 0; 0; 0 ]));
  Alcotest.(check bool) "u = 1 suffices" true
    (Poly.Polyhedron.contains space (point [ 0; 1; 0; 0; 1; 0; 1; 0 ]))

(* --- scheduler on gemver ------------------------------------------------ *)

let iter_part_of_first_hyp (res : Scheduler.result) id =
  let depth = Statement.depth res.prog.stmts.(id) in
  let rec find = function
    | [] -> Alcotest.fail "no hyperplane row"
    | Sched.Hyp h :: _ -> Array.sub h 0 depth
    | Sched.Beta _ :: rest -> find rest
  in
  find res.sched.(id)

(* a run of [cfg] on gemver and the Farkas-memo misses it counted *)
let gemver_misses cfg =
  let m0 = Linalg.Counters.(get farkas_cache_misses) in
  let res = Scheduler.run cfg (gemver ()) in
  (res, Linalg.Counters.(get farkas_cache_misses) - m0)

let test_gemver_smartfuse () =
  let res, misses = gemver_misses Scheduler.smartfuse in
  (* legal *)
  (match Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d));
  (* S1 and S2 fused; S3 and S4 in separate partitions (paper Fig. 3) *)
  Alcotest.(check int) "S1,S2 fused" res.outer_partition.(0) res.outer_partition.(1);
  Alcotest.(check bool) "S3 apart" true
    (res.outer_partition.(2) <> res.outer_partition.(0));
  Alcotest.(check bool) "S4 apart" true
    (res.outer_partition.(3) <> res.outer_partition.(2)
    && res.outer_partition.(3) <> res.outer_partition.(0));
  (* the fusion is enabled by interchanging S1 (Figure 1(c)) *)
  Alcotest.(check (array int)) "S1 interchanged" [| 0; 1 |]
    (iter_part_of_first_hyp res 0);
  Alcotest.(check (array int)) "S2 keeps i outer" [| 1; 0 |]
    (iter_part_of_first_hyp res 1);
  (* each run owns its Farkas memo, so a second run of the same kernel
     derives every space again *)
  Alcotest.(check bool) "the run derives Farkas spaces" true (misses > 0);
  Alcotest.(check int) "a second run misses as often" misses
    (snd (gemver_misses Scheduler.smartfuse))

let test_gemver_nofuse () =
  let res = Scheduler.run Scheduler.nofuse (gemver ()) in
  (match Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d));
  let parts = Scheduler.partitions res in
  Alcotest.(check int) "four partitions" 4 (List.length parts)

let test_gemver_maxfuse () =
  let res = Scheduler.run Scheduler.maxfuse (gemver ()) in
  (match Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d));
  let parts = Scheduler.partitions res in
  Alcotest.(check bool) "at most as many partitions as smartfuse" true
    (List.length parts
    <= List.length (Scheduler.partitions (Scheduler.run Scheduler.smartfuse (gemver ()))))

(* --- scheduler on advect ------------------------------------------------- *)

let test_advect_maxfuse_shifts () =
  let res = Scheduler.run Scheduler.maxfuse (advect ()) in
  (match Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d));
  (* everything fused into one nest (Figure 4(c)) *)
  Alcotest.(check int) "one partition" 1
    (List.length (Scheduler.partitions res));
  (* ... at the price of outer-loop parallelism: the outermost loop has
     a forward dependence *)
  let members = [ 0; 1; 2; 3 ] in
  let first_hyp_level =
    let rec find l =
      match List.nth res.sched.(0) l with
      | Pluto.Sched.Beta _ -> find (l + 1)
      | Pluto.Sched.Hyp _ -> l
    in
    find 0
  in
  Alcotest.(check bool) "outer loop is pipelined, not parallel" true
    (Satisfy.row_class res.prog res.true_deps res.sched ~level:first_hyp_level
       ~members
    = Satisfy.Forward)

let test_advect_smartfuse_same_as_maxfuse () =
  (* all SCCs have dimensionality 2 here, so smartfuse = maxfuse
     (the paper: "Both smartfuse and maxfuse apply maximal fusion in
     these cases") *)
  let res = Scheduler.run Scheduler.smartfuse (advect ()) in
  Alcotest.(check int) "one partition" 1 (List.length (Scheduler.partitions res))

let test_advect_nofuse_parallel () =
  let res = Scheduler.run Scheduler.nofuse (advect ()) in
  (match Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d));
  Alcotest.(check int) "four partitions" 4
    (List.length (Scheduler.partitions res));
  (* each distributed nest is outer-parallel *)
  List.iter
    (fun members ->
      Alcotest.(check bool) "outer parallel" true
        (Satisfy.row_class res.prog res.true_deps res.sched ~level:1 ~members
        = Satisfy.Parallel))
    (Scheduler.partitions res)

(* --- schedule structure invariants --------------------------------------- *)

let test_schedule_shape () =
  List.iter
    (fun cfg ->
      let res = Scheduler.run cfg (gemver ()) in
      let lens = Array.map List.length res.sched in
      Array.iter
        (fun l -> Alcotest.(check int) "same row count" lens.(0) l)
        lens;
      (* row kinds agree across statements *)
      for level = 0 to lens.(0) - 1 do
        let kind id =
          match List.nth res.sched.(id) level with
          | Sched.Beta _ -> true
          | Sched.Hyp _ -> false
        in
        Array.iteri
          (fun id _ ->
            Alcotest.(check bool) "kind agrees" (kind 0) (kind id))
          res.sched
      done)
    [ Scheduler.nofuse; Scheduler.smartfuse; Scheduler.maxfuse ]

let test_satisfaction_levels () =
  let res = Scheduler.run Scheduler.smartfuse (gemver ()) in
  (* every true dependence is satisfied somewhere *)
  List.iter
    (fun (d : Dep.t) ->
      match Satisfy.satisfaction_level res.prog d res.sched with
      | Some _ -> ()
      | None -> Alcotest.fail (Format.asprintf "unsatisfied: %a" Dep.pp d))
    res.true_deps

(* --- incremental engine --------------------------------------------------- *)

let check_legal_or_fail (res : Scheduler.result) =
  match Satisfy.check_legal res.prog res.true_deps res.sched with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Format.asprintf "illegal: %a" Dep.pp d)

(* With the [check_warm] hook armed, every warm-started LP relaxation
   in the branch-and-bound search is re-solved cold and compared (status
   and value); a disagreement raises. Exercises the full scheduler on
   both running examples. *)
let test_warm_selfcheck () =
  Linalg.Chaos.arm ~check_warm:true (fun () ->
      List.iter
        (fun prog ->
          List.iter
            (fun cfg -> check_legal_or_fail (Scheduler.run cfg prog))
            [ Scheduler.nofuse; Scheduler.smartfuse; Scheduler.maxfuse ])
        [ gemver (); advect () ])

(* Memoized Farkas systems must be indistinguishable from fresh ones:
   a second pass through the same memo is served from it and yields
   equal polyhedra, and a fresh memo shares nothing with the first. *)
let test_farkas_cache_identity () =
  let prog = gemver () in
  let deps = Dep.analyze prog in
  let spaces memo =
    let h0 = Linalg.Counters.(get farkas_cache_hits)
    and m0 = Linalg.Counters.(get farkas_cache_misses) in
    let spaces =
      List.concat_map
        (fun (d : Dep.t) ->
          let d1 = Statement.depth prog.stmts.(d.src)
          and d2 = Statement.depth prog.stmts.(d.dst) in
          let np = Poly.Polyhedron.dim d.poly - d1 - d2 in
          [ Farkas.legality_space ~memo ~d1 ~d2 ~np d.poly;
            Farkas.bounding_space ~memo ~d1 ~d2 ~np d.poly ])
        deps
    in
    ( spaces,
      Linalg.Counters.(get farkas_cache_hits) - h0,
      Linalg.Counters.(get farkas_cache_misses) - m0 )
  in
  let memo = Farkas.memo () in
  let cold, _, cold_misses = spaces memo in
  let cached, hits, misses = spaces memo in
  Alcotest.(check int) "second pass is all hits" (List.length cached) hits;
  Alcotest.(check int) "second pass misses nothing" 0 misses;
  let fresh, _, fresh_misses = spaces (Farkas.memo ()) in
  Alcotest.(check int) "a fresh memo shares nothing" cold_misses fresh_misses;
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "cached = cold" true (Poly.Polyhedron.equal a b))
    cold cached;
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "recomputed = cold" true (Poly.Polyhedron.equal a b))
    cold fresh

(* --- pivot path ------------------------------------------------------------ *)

(* The simplex effort of whole-program optimizations, from zeroed
   counters (each run owns its Farkas memo), as a fresh process would
   find them.
   These counts follow the pivot choices of the exact simplex, and
   serve payloads embed them, so a change to the LP kernel that moves
   any of them changes observable output. *)
let pivot_counters =
  Linalg.Counters.
    [ ("lp_solves", lp_solves); ("lp_pivots", lp_pivots);
      ("dual_pivots", dual_pivots); ("warm_starts", warm_starts);
      ("warm_fallbacks", warm_fallbacks); ("ilp_solves", ilp_solves);
      ("bb_nodes", bb_nodes); ("big_promotions", promotions);
      ("big_demotions", demotions) ]

let pivot_path model prog =
  Linalg.Counters.reset ();
  ignore (Fusion.Model.optimize model prog);
  List.map (fun (name, c) -> (name, Linalg.Counters.get c)) pivot_counters

let pivot_cases =
  let registry name () = Kernels.Registry.build (Kernels.Registry.find name) in
  [ ("bt wisefuse", Fusion.Model.Wisefuse, registry "bt",
     [ 1139; 10672; 0; 139; 0; 119; 119; 0; 0 ]);
    ("bt maxfuse", Fusion.Model.Maxfuse, registry "bt",
     [ 972; 9240; 0; 92; 0; 112; 112; 0; 0 ]);
    ("sp wisefuse", Fusion.Model.Wisefuse, registry "sp",
     [ 1755; 15426; 0; 106; 0; 104; 104; 0; 0 ]);
    ("sp maxfuse", Fusion.Model.Maxfuse, registry "sp",
     [ 1636; 14517; 0; 71; 0; 97; 97; 0; 0 ]);
    ("stencil40 lp-dfp", Fusion.Model.Wisefuse,
     (fun () -> Kernels.Scopgen.generate Kernels.Scopgen.Stencil ~stmts:40),
     [ 2986; 17964; 0; 153; 0; 237; 237; 507; 0 ]);
    ("chain40 lp-dfp", Fusion.Model.Wisefuse,
     (fun () -> Kernels.Scopgen.generate Kernels.Scopgen.Chain ~stmts:40),
     [ 518; 2738; 0; 83; 0; 39; 39; 0; 0 ]);
    ("blocked40 lp-dfp", Fusion.Model.Wisefuse,
     (fun () -> Kernels.Scopgen.generate Kernels.Scopgen.Blocked ~stmts:40),
     [ 918; 9068; 0; 127; 0; 39; 39; 0; 0 ]) ]

let test_pivot_path (label, model, build, expected) () =
  let got = pivot_path model (build ()) in
  Alcotest.(check (list (pair string int)))
    label
    (List.combine (List.map fst pivot_counters) expected)
    got

(* --- row order ------------------------------------------------------------ *)

(* The LPs over a Farkas space pivot through its rows in stored order,
   so that order is observable: an MD5 over the rows of every legality
   and bounding space a kernel's true dependences produce, in the order
   [Polyhedron.constraints] returns them (not [structural_key], which
   would hide an order change). *)
let farkas_order_digest prog =
  let memo = Farkas.memo () in
  let buf = Buffer.create 4096 in
  let row_dump space =
    List.iter
      (fun c ->
        Buffer.add_string buf (Poly.Constr.structural_key c);
        Buffer.add_char buf ';')
      (Poly.Polyhedron.constraints space);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (d : Dep.t) ->
      if Dep.is_true d then begin
        let d1 = Statement.depth prog.Program.stmts.(d.src)
        and d2 = Statement.depth prog.Program.stmts.(d.dst) in
        let np = Program.nparams prog in
        row_dump (Farkas.legality_space ~memo ~d1 ~d2 ~np d.poly);
        row_dump (Farkas.bounding_space ~memo ~d1 ~d2 ~np d.poly)
      end)
    (Dep.analyze prog);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let order_pins =
  [ ("bt", "9ec0550db462b2b01388dff8a6d0172d");
    ("sp", "8bcd07904ab3644d5ddff70c820fa685");
    ("swim", "1101e82b153e717a56179bfb969ae94f");
    ("gemsfdtd", "3c3f0541613d15a2d514043530c0181a") ]

let test_order_pin (name, expected) () =
  let prog = Kernels.Registry.build (Kernels.Registry.find name) in
  Alcotest.(check string) name expected (farkas_order_digest prog)

let () =
  Alcotest.run "pluto"
    [ ( "farkas",
        [ Alcotest.test_case "legality space" `Quick test_farkas_legality;
          Alcotest.test_case "bounding space" `Quick test_farkas_bounding ] );
      ( "gemver",
        [ Alcotest.test_case "smartfuse" `Quick test_gemver_smartfuse;
          Alcotest.test_case "nofuse" `Quick test_gemver_nofuse;
          Alcotest.test_case "maxfuse" `Quick test_gemver_maxfuse ] );
      ( "advect",
        [ Alcotest.test_case "maxfuse shifts" `Quick test_advect_maxfuse_shifts;
          Alcotest.test_case "smartfuse = maxfuse" `Quick test_advect_smartfuse_same_as_maxfuse;
          Alcotest.test_case "nofuse parallel" `Quick test_advect_nofuse_parallel ] );
      ( "structure",
        [ Alcotest.test_case "shape invariants" `Quick test_schedule_shape;
          Alcotest.test_case "all satisfied" `Quick test_satisfaction_levels ] );
      ( "incremental",
        [ Alcotest.test_case "warm B&B nodes match cold" `Quick
            test_warm_selfcheck;
          Alcotest.test_case "farkas cache identity" `Quick
            test_farkas_cache_identity ] );
      ( "pivot path",
        List.map
          (fun ((label, _, _, _) as case) ->
            Alcotest.test_case label `Quick (test_pivot_path case))
          pivot_cases );
      ( "farkas row order",
        List.map
          (fun ((name, _) as pin) ->
            Alcotest.test_case name `Quick (test_order_pin pin))
          order_pins ) ]
