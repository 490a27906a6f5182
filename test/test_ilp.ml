(* Tests for the exact simplex (Lp) and branch-and-bound (Ilp). *)

open Linalg
open Poly
open Ilp

let vec = Vec.of_int_list

let check_q name expect got =
  Alcotest.(check string) name (Q.to_string expect) (Q.to_string got)

(* --- Lp ------------------------------------------------------------------ *)

let test_lp_basic () =
  (* min x + y  s.t. x >= 1, y >= 2  ->  3 at (1,2) *)
  let p = Polyhedron.make 2 [ Constr.ge [ 1; 0; -1 ]; Constr.ge [ 0; 1; -2 ] ] in
  match Lp.minimize p (vec [ 1; 1; 0 ]) with
  | Lp.Optimal (v, x) ->
    check_q "value" (Q.of_int 3) v;
    Alcotest.(check bool) "point" true (Vec.equal x (vec [ 1; 2 ]))
  | _ -> Alcotest.fail "expected optimal"

let test_lp_max () =
  (* max x + 2y s.t. x + y <= 4, x <= 2, x,y >= 0 -> 8 at (0,4) *)
  let p =
    Polyhedron.make 2
      [ Constr.ge [ -1; -1; 4 ]; Constr.ge [ -1; 0; 2 ]; Constr.ge [ 1; 0; 0 ];
        Constr.ge [ 0; 1; 0 ] ]
  in
  match Lp.maximize p (vec [ 1; 2; 0 ]) with
  | Lp.Optimal (v, _) -> check_q "value" (Q.of_int 8) v
  | _ -> Alcotest.fail "expected optimal"

let test_lp_fractional_optimum () =
  (* min x s.t. 2x >= 1 -> 1/2 *)
  let p = Polyhedron.make 1 [ Constr.unsafe_make Constr.Ge (vec [ 2; -1 ]) ] in
  match Lp.minimize p (vec [ 1; 0 ]) with
  | Lp.Optimal (v, _) -> check_q "value" (Q.div Q.one (Q.of_int 2)) v
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let p = Polyhedron.make 1 [ Constr.ge [ 1; -3 ]; Constr.ge [ -1; 1 ] ] in
  (* x >= 3 and x <= 1 *)
  Alcotest.(check bool) "infeasible" true (Lp.minimize p (vec [ 1; 0 ]) = Lp.Infeasible)

let test_lp_unbounded () =
  (* min x with x <= 0: unbounded below (x free) *)
  let p = Polyhedron.make 1 [ Constr.ge [ -1; 0 ] ] in
  Alcotest.(check bool) "unbounded" true (Lp.minimize p (vec [ 1; 0 ]) = Lp.Unbounded)

let test_lp_equalities () =
  (* min x + y s.t. x + y = 5, x - y = 1 -> unique point (3,2), value 5 *)
  let p = Polyhedron.make 2 [ Constr.eq [ 1; 1; -5 ]; Constr.eq [ 1; -1; -1 ] ] in
  match Lp.minimize p (vec [ 1; 1; 0 ]) with
  | Lp.Optimal (v, x) ->
    check_q "value" (Q.of_int 5) v;
    Alcotest.(check bool) "point" true (Vec.equal x (vec [ 3; 2 ]))
  | _ -> Alcotest.fail "expected optimal"

let test_lp_negative_vars () =
  (* variables are free: min x s.t. x >= -7 -> -7 *)
  let p = Polyhedron.make 1 [ Constr.ge [ 1; 7 ] ] in
  match Lp.minimize p (vec [ 1; 0 ]) with
  | Lp.Optimal (v, _) -> check_q "value" (Q.of_int (-7)) v
  | _ -> Alcotest.fail "expected optimal"

let test_lp_affine_constant () =
  (* objective has a constant term: min (x + 10) s.t. x >= 1 -> 11 *)
  let p = Polyhedron.make 1 [ Constr.ge [ 1; -1 ] ] in
  match Lp.minimize p (vec [ 1; 10 ]) with
  | Lp.Optimal (v, _) -> check_q "value" (Q.of_int 11) v
  | _ -> Alcotest.fail "expected optimal"

let test_lp_degenerate () =
  (* degenerate vertex: several constraints through the same point;
     Bland's rule must still terminate *)
  let p =
    Polyhedron.make 2
      [ Constr.ge [ 1; 0; 0 ]; Constr.ge [ 0; 1; 0 ]; Constr.ge [ 1; 1; 0 ];
        Constr.ge [ 1; 2; 0 ]; Constr.ge [ 2; 1; 0 ]; Constr.ge [ -1; -1; 2 ] ]
  in
  match Lp.minimize p (vec [ 1; 1; 0 ]) with
  | Lp.Optimal (v, _) -> check_q "value" Q.zero v
  | _ -> Alcotest.fail "expected optimal"

(* a feasible point is an optimum of the zero objective *)
let test_lp_feasible_point () =
  let p = Polyhedron.make 2 [ Constr.ge [ 1; 0; -2 ]; Constr.ge [ 0; 1; -3 ] ] in
  (match Lp.minimize p (Vec.zero 3) with
  | Lp.Optimal (_, x) -> Alcotest.(check bool) "in p" true (Polyhedron.contains p x)
  | _ -> Alcotest.fail "expected a point");
  let e = Polyhedron.make 1 [ Constr.ge [ 1; 0 ]; Constr.ge [ -1; -1 ] ] in
  Alcotest.(check bool) "none" true (Lp.minimize e (Vec.zero 2) = Lp.Infeasible)

(* Dantzig pivoting and Bland's rule from the first pivot (the [bland]
   hook) must agree on the optimum value and on feasibility/boundedness
   status for every seed LP above. Optimal points may legitimately
   differ, so only values are compared. *)
let test_lp_dantzig_bland_agree () =
  let seed_lps =
    [ ("basic", Polyhedron.make 2 [ Constr.ge [ 1; 0; -1 ]; Constr.ge [ 0; 1; -2 ] ],
       vec [ 1; 1; 0 ]);
      ("max-as-min",
       Polyhedron.make 2
         [ Constr.ge [ -1; -1; 4 ]; Constr.ge [ -1; 0; 2 ]; Constr.ge [ 1; 0; 0 ];
           Constr.ge [ 0; 1; 0 ] ],
       vec [ -1; -2; 0 ]);
      ("fractional",
       Polyhedron.make 1 [ Constr.unsafe_make Constr.Ge (vec [ 2; -1 ]) ],
       vec [ 1; 0 ]);
      ("infeasible", Polyhedron.make 1 [ Constr.ge [ 1; -3 ]; Constr.ge [ -1; 1 ] ],
       vec [ 1; 0 ]);
      ("unbounded", Polyhedron.make 1 [ Constr.ge [ -1; 0 ] ], vec [ 1; 0 ]);
      ("equalities",
       Polyhedron.make 2 [ Constr.eq [ 1; 1; -5 ]; Constr.eq [ 1; -1; -1 ] ],
       vec [ 1; 1; 0 ]);
      ("negative vars", Polyhedron.make 1 [ Constr.ge [ 1; 7 ] ], vec [ 1; 0 ]);
      ("affine constant", Polyhedron.make 1 [ Constr.ge [ 1; -1 ] ], vec [ 1; 10 ]);
      ("degenerate",
       Polyhedron.make 2
         [ Constr.ge [ 1; 0; 0 ]; Constr.ge [ 0; 1; 0 ]; Constr.ge [ 1; 1; 0 ];
           Constr.ge [ 1; 2; 0 ]; Constr.ge [ 2; 1; 0 ]; Constr.ge [ -1; -1; 2 ] ],
       vec [ 1; 1; 0 ]) ]
  in
  List.iter
    (fun (name, p, obj) ->
      match
        (Lp.minimize p obj, Chaos.arm ~bland:true (fun () -> Lp.minimize p obj))
      with
      | Lp.Optimal (vd, _), Lp.Optimal (vb, _) -> check_q name vd vb
      | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> ()
      | _ -> Alcotest.fail (name ^ ": pivot rules disagree on status"))
    seed_lps

(* --- Ilp ----------------------------------------------------------------- *)

let test_ilp_rounds_up () =
  (* min x s.t. 2x >= 1, integer -> 1 (LP gives 1/2) *)
  let p = Polyhedron.make 1 [ Constr.unsafe_make Constr.Ge (vec [ 2; -1 ]) ] in
  match Bb.lexmin p [ vec [ 1; 0 ] ] with
  | Some ([ v ], x) ->
    check_q "value" Q.one v;
    Alcotest.(check int) "point" 1 x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_knapsack_like () =
  (* max 3x + 4y s.t. 2x + 3y <= 7, x,y >= 0 integer.
     LP optimum fractional; ILP optimum: x=2,y=1 -> 10 *)
  let p =
    Polyhedron.make 2
      [ Constr.ge [ -2; -3; 7 ]; Constr.ge [ 1; 0; 0 ]; Constr.ge [ 0; 1; 0 ] ]
  in
  match Bb.lexmin p [ vec [ -3; -4; 0 ] ] with
  | Some ([ v ], x) ->
    check_q "value" (Q.of_int (-10)) v;
    Alcotest.(check bool) "feasible" true (Polyhedron.contains_int p x)
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_infeasible_gap () =
  (* 1/2 < x < 1: rational point exists, no integer *)
  let p =
    Polyhedron.make 1
      [ Constr.unsafe_make Constr.Ge (vec [ 2; -1 ]);
        Constr.unsafe_make Constr.Ge (vec [ -2; 1 ]) ]
  in
  Alcotest.(check bool) "int infeasible" true (not (Bb.feasible p))

let test_ilp_feasible () =
  let p = Polyhedron.make 2 [ Constr.ge [ 1; 1; -3 ]; Constr.ge [ -1; -1; 3 ] ] in
  (* x + y = 3 *)
  Alcotest.(check bool) "feasible" true (Bb.feasible p);
  match Bb.integer_point p with
  | Some x -> Alcotest.(check bool) "point in p" true (Polyhedron.contains_int p x)
  | None -> Alcotest.fail "expected a point"

let test_ilp_lexmin () =
  (* lexmin (x, y) over x + y >= 3, 0 <= x,y <= 5: x first -> x=0, then y=3 *)
  let p =
    Polyhedron.make 2
      [ Constr.ge [ 1; 1; -3 ]; Constr.ge [ 1; 0; 0 ]; Constr.ge [ 0; 1; 0 ];
        Constr.ge [ -1; 0; 5 ]; Constr.ge [ 0; -1; 5 ] ]
  in
  match Bb.lexmin p [ vec [ 1; 0; 0 ]; vec [ 0; 1; 0 ] ] with
  | Some ([ vx; vy ], pt) ->
    check_q "x" Q.zero vx;
    check_q "y" (Q.of_int 3) vy;
    Alcotest.(check bool) "point" true (pt = [| 0; 3 |])
  | _ -> Alcotest.fail "expected lexmin"

let test_ilp_empty_polyhedron () =
  Alcotest.(check bool) "canonical empty infeasible" false
    (Bb.feasible (Polyhedron.make 2 [ Constr.ge [ 0; 0; -1 ] ]))

(* --- properties: ILP vs brute force ------------------------------------- *)

let arb_bounded_poly2 =
  (* random constraints plus a bounding box 0 <= x,y <= 6 *)
  let gen_constr =
    QCheck.Gen.(
      map
        (fun (a, b, k) -> Constr.ge [ a; b; k ])
        (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-2) 8)))
  in
  QCheck.make
    QCheck.Gen.(
      map
        (fun cs ->
          Polyhedron.make 2
            (Constr.ge [ 1; 0; 0 ] :: Constr.ge [ 0; 1; 0 ]
            :: Constr.ge [ -1; 0; 6 ] :: Constr.ge [ 0; -1; 6 ] :: cs))
        (list_size (int_range 0 4) gen_constr))

let brute_force_min p obj =
  let pts = Polyhedron.integer_points ~lo:[| 0; 0 |] ~hi:[| 6; 6 |] p in
  List.fold_left
    (fun acc pt ->
      let v = Q.add (Q.of_int ((obj.(0) * pt.(0)) + (obj.(1) * pt.(1)))) Q.zero in
      match acc with
      | None -> Some v
      | Some b -> Some (if Q.compare v b < 0 then v else b))
    None pts

let prop_ilp_matches_brute_force =
  QCheck.Test.make ~name:"ILP minimum matches brute force" ~count:100
    (QCheck.pair arb_bounded_poly2
       (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)))
    (fun (p, (c0, c1)) ->
      let obj = vec [ c0; c1; 0 ] in
      match (Bb.lexmin p [ obj ], brute_force_min p [| c0; c1 |]) with
      | Some ([ v ], _), Some bf -> Q.equal v bf
      | None, None -> true
      | _ -> false)

let prop_feasible_matches_brute_force =
  QCheck.Test.make ~name:"ILP feasibility matches brute force" ~count:100
    arb_bounded_poly2
    (fun p ->
      Bb.feasible p
      = (Polyhedron.integer_points ~lo:[| 0; 0 |] ~hi:[| 6; 6 |] p <> []))

let prop_dantzig_bland_same_optimum =
  QCheck.Test.make ~name:"Dantzig and Bland reach the same optimum" ~count:100
    (QCheck.pair arb_bounded_poly2
       (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)))
    (fun (p, (c0, c1)) ->
      let obj = vec [ c0; c1; 0 ] in
      match (Lp.minimize p obj, Chaos.arm ~bland:true (fun () -> Lp.minimize p obj)) with
      | Lp.Optimal (vd, _), Lp.Optimal (vb, _) -> Q.equal vd vb
      | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
      | _ -> false)

let prop_lp_lower_bounds_ilp =
  QCheck.Test.make ~name:"LP relaxation lower-bounds ILP" ~count:100
    (QCheck.pair arb_bounded_poly2
       (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)))
    (fun (p, (c0, c1)) ->
      let obj = vec [ c0; c1; 0 ] in
      match (Lp.minimize p obj, Bb.lexmin p [ obj ]) with
      | Lp.Optimal (lv, _), Some ([ iv ], _) -> Q.compare lv iv <= 0
      | _, None -> brute_force_min p [| c0; c1 |] = None
      | _ -> false)

(* Fourier-Motzkin without tightening is exact over the rationals:
   every rational point of the projection lifts to a rational point of
   the original polyhedron. Checked by sampling the projection's
   integer points and asking the LP for a lifting. *)
let prop_fm_projection_rationally_exact =
  QCheck.Test.make ~name:"FM projection is exact over Q" ~count:60
    QCheck.(
      make
        Gen.(
          map
            (fun cs ->
              Polyhedron.make 3
                (List.map (fun (a, b, c, k) -> Constr.ge [ a; b; c; k ]) cs))
            (list_size (int_range 1 4)
               (quad (int_range (-2) 2) (int_range (-2) 2) (int_range (-2) 2)
                  (int_range 0 5)))))
    (fun p ->
      let proj = Polyhedron.eliminate ~integer:false p [ 2 ] in
      let shadow =
        Polyhedron.integer_points ~lo:[| -3; -3 |] ~hi:[| 3; 3 |] proj
      in
      List.for_all
        (fun pt ->
          (* fiber: p with x0, x1 fixed *)
          let fiber =
            Polyhedron.add_list p
              [ Constr.eq [ 1; 0; 0; -pt.(0) ]; Constr.eq [ 0; 1; 0; -pt.(1) ] ]
          in
          Lp.minimize fiber (Vec.zero 4) <> Lp.Infeasible)
        shadow)

let prop_remove_redundant_preserves_set =
  QCheck.Test.make ~name:"remove_redundant preserves the integer set" ~count:100
    arb_bounded_poly2
    (fun p ->
      let q = Bb.remove_redundant p in
      List.length (Polyhedron.constraints q)
      <= List.length (Polyhedron.constraints p)
      && Polyhedron.integer_points ~lo:[| 0; 0 |] ~hi:[| 6; 6 |] p
         = Polyhedron.integer_points ~lo:[| 0; 0 |] ~hi:[| 6; 6 |] q)

let test_remove_redundant_drops_rows () =
  (* x <= 10 is implied by x <= 5 *)
  let p =
    Polyhedron.make 1
      [ Constr.ge [ 1; 0 ]; Constr.ge [ -1; 5 ]; Constr.ge [ -1; 10 ] ]
  in
  let q = Bb.remove_redundant p in
  Alcotest.(check int) "two rows left" 2 (List.length (Polyhedron.constraints q))

(* --- properties: warm-started re-solves vs cold solves ------------------- *)

let arb_constr2 =
  QCheck.make
    QCheck.Gen.(
      map
        (fun (a, b, k) -> Constr.ge [ a; b; k ])
        (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-2) 8)))

(* warm and cold solves must agree on status and value; the optimal
   point may legitimately differ (alternative optima), so it is not
   compared *)
let same_value a b =
  match (a, b) with
  | Lp.Optimal (va, _), Lp.Optimal (vb, _) -> Q.equal va vb
  | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
  | _ -> false

let prop_warm_add_matches_cold =
  QCheck.Test.make ~name:"warm re-solve with extra row matches cold" ~count:100
    (QCheck.pair arb_bounded_poly2
       (QCheck.pair arb_constr2
          (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3))))
    (fun (p, (c, (c0, c1))) ->
      let obj = vec [ c0; c1; 0 ] in
      match Lp.minimize_warm p obj with
      | Lp.Optimal _, Some w ->
        same_value
          (fst (Lp.reoptimize w ~add:[ c ] ~obj))
          (Lp.minimize (Polyhedron.add_list p [ c ]) obj)
      | _, None -> true (* no optimal basis to warm-start from *)
      | _, Some _ -> false)

let prop_warm_newobj_matches_cold =
  QCheck.Test.make ~name:"warm re-solve with new objective matches cold"
    ~count:100
    (QCheck.pair arb_bounded_poly2
       (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)))
    (fun (p, (c0, c1)) ->
      let obj = vec [ c0; c1; 0 ] in
      match Lp.minimize_warm p obj with
      | Lp.Optimal _, Some w ->
        let obj' = Vec.neg obj in
        same_value (fst (Lp.reoptimize w ~add:[] ~obj:obj')) (Lp.minimize p obj')
      | _, None -> true
      | _, Some _ -> false)

let prop_warm_chain_matches_cold =
  QCheck.Test.make ~name:"chained warm re-solves match cold" ~count:60
    (QCheck.pair arb_bounded_poly2
       (QCheck.pair (QCheck.pair arb_constr2 arb_constr2)
          (QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3))))
    (fun (p, ((ca, cb), (c0, c1))) ->
      let obj = vec [ c0; c1; 0 ] in
      match Lp.minimize_warm p obj with
      | Lp.Optimal _, Some w -> (
        let r1, w1 = Lp.reoptimize w ~add:[ ca ] ~obj in
        same_value r1 (Lp.minimize (Polyhedron.add_list p [ ca ]) obj)
        &&
        match w1 with
        | None -> true
        | Some w1 ->
          let obj' = Vec.neg obj in
          same_value
            (fst (Lp.reoptimize w1 ~add:[ cb ] ~obj:obj'))
            (Lp.minimize (Polyhedron.add_list p [ ca; cb ]) obj'))
      | _, None -> true
      | _, Some _ -> false)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ilp"
    [ ( "lp",
        [ Alcotest.test_case "basic min" `Quick test_lp_basic;
          Alcotest.test_case "max" `Quick test_lp_max;
          Alcotest.test_case "fractional optimum" `Quick test_lp_fractional_optimum;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "equalities" `Quick test_lp_equalities;
          Alcotest.test_case "negative vars" `Quick test_lp_negative_vars;
          Alcotest.test_case "affine constant" `Quick test_lp_affine_constant;
          Alcotest.test_case "degenerate vertex" `Quick test_lp_degenerate;
          Alcotest.test_case "feasible point" `Quick test_lp_feasible_point;
          Alcotest.test_case "pivot rules agree" `Quick
            test_lp_dantzig_bland_agree ] );
      ( "ilp",
        [ Alcotest.test_case "rounding up" `Quick test_ilp_rounds_up;
          Alcotest.test_case "knapsack-like" `Quick test_ilp_knapsack_like;
          Alcotest.test_case "integer gap" `Quick test_ilp_infeasible_gap;
          Alcotest.test_case "feasible" `Quick test_ilp_feasible;
          Alcotest.test_case "lexmin" `Quick test_ilp_lexmin;
          Alcotest.test_case "empty polyhedron" `Quick test_ilp_empty_polyhedron;
          Alcotest.test_case "remove_redundant" `Quick
            test_remove_redundant_drops_rows ] );
      ( "ilp-props",
        qt
          [ prop_ilp_matches_brute_force; prop_feasible_matches_brute_force;
            prop_dantzig_bland_same_optimum; prop_lp_lower_bounds_ilp;
            prop_remove_redundant_preserves_set;
            prop_fm_projection_rationally_exact ] );
      ( "warm-props",
        qt
          [ prop_warm_add_matches_cold; prop_warm_newobj_matches_cold;
            prop_warm_chain_matches_cold ] ) ]
