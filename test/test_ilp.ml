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

(* A dependence polyhedron of a random program, unbounded above in x4.
   A warm depth-first search spent all 20,000 nodes of its cap on it and
   answered "feasible" only because it gave up; the cold search finds
   (1, 4, 5, 1, 7) in 13 nodes. Counting nodes, not time, keeps the
   check from flaking. *)
let test_ilp_feasible_cold () =
  let p =
    Polyhedron.make 5
      (List.map Constr.ge
         [ [ -8; -6; 8; 6; 0; -1 ]; [ 1; 0; 0; 0; 0; -1 ]; [ 0; 1; 0; 0; 0; -1 ];
           [ 0; 0; 1; 0; 0; -1 ]; [ 0; 0; 0; 1; 0; -1 ]; [ 0; 0; 0; 0; 1; -2 ];
           [ -1; 0; 0; 0; 1; -2 ]; [ 0; -1; 0; 0; 1; -2 ]; [ 0; 0; -1; 0; 1; -2 ];
           [ 0; 0; 0; -1; 1; -2 ]; [ -1; 0; 1; 0; 0; -1 ] ]
      @ [ Constr.eq [ -3; -4; 3; 4; 0; 0 ] ])
  in
  Alcotest.(check bool) "witness" true (Polyhedron.contains_int p [| 1; 4; 5; 1; 7 |]);
  let feasible, nodes =
    Counters.scoped (fun () ->
        let r = Bb.feasible p in
        (r, Counters.get Counters.bb_nodes))
  in
  Alcotest.(check bool) "feasible" true feasible;
  if nodes > 100 then Alcotest.failf "%d branch-and-bound nodes, expected at most 100" nodes

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

(* --- native tableau vs rational tableau ------------------------------------ *)

(* A cold solve pivots on native ints and restarts on the rational
   tableau when its numbers leave the native range; the [big_path] hook
   sends every solve to the rational tableau. Both must return the same
   result at the same counts. *)

let show = function
  | Lp.Optimal (v, x) ->
    Printf.sprintf "optimal %s at (%s)" (Q.to_string v)
      (String.concat ", " (Array.to_list (Array.map Q.to_string x)))
  | Lp.Infeasible -> "infeasible"
  | Lp.Unbounded -> "unbounded"
  | Lp.Exhausted -> "exhausted"

(* [f ()] and how far it moved [counter] *)
let counted counter f =
  let before = Counters.get counter in
  let r = f () in
  (r, Counters.get counter - before)

let big f = Chaos.arm ~big_path:true f

(* max x + y + z + w over x, y, z, w >= 0 below four dense rows of
   coprime coefficients: the native tableau's numbers leave the native
   range on the fourth of its four pivots, so the default solve falls
   back after billing four pivots *)
let range_lp =
  ( Polyhedron.make 4
      (List.map Constr.ge
         [ [ -29; -3; -5; -7; 31 ]; [ -11; -23; -13; -17; 37 ]; [ -19; -2; -31; -9; 41 ];
           [ -1; -7; -2; -37; 43 ]; [ 1; 0; 0; 0; 0 ]; [ 0; 1; 0; 0; 0 ];
           [ 0; 0; 1; 0; 0 ]; [ 0; 0; 0; 1; 0 ] ]),
    vec [ -1; -1; -1; -1; 0 ] )

(* An LP that leaves the native range, and one whose objective is not
   integral (the native tableau does not take it), each against the
   rational tableau. *)
let test_fallback_same_answer () =
  let q a b = Q.div (Q.of_int a) (Q.of_int b) in
  let small =
    Polyhedron.make 2
      [ Constr.ge [ -1; -1; 4 ]; Constr.ge [ -1; 0; 2 ]; Constr.ge [ 1; 0; 0 ];
        Constr.ge [ 0; 1; 0 ] ]
  in
  List.iter
    (fun (name, (p, obj)) ->
      let r, pivots = counted Counters.lp_pivots (fun () -> Lp.minimize p obj) in
      let r', pivots' = counted Counters.lp_pivots (fun () -> big (fun () -> Lp.minimize p obj)) in
      Alcotest.(check string) (name ^ ": result") (show r') (show r);
      Alcotest.(check int) (name ^ ": lp_pivots") pivots' pivots)
    [ ("range", range_lp);
      ("fractional objective", (small, [| q (-1) 2; q (-2) 3; Q.zero |])) ]

(* A fallback must not bill the budget twice for the pivots its native
   attempt already billed: at the least pivot budget under which the
   rational tableau answers, the default solve answers too. *)
let test_fallback_budget () =
  let p, obj = range_lp in
  let solve pivots = Lp.minimize ~budget:(Budget.make ~pivots ()) p obj in
  let rec least b =
    if b > 50 then Alcotest.fail "no budget lets the rational tableau answer"
    else match big (fun () -> solve b) with Lp.Optimal _ -> b | _ -> least (b + 1)
  in
  let b = least 0 in
  Alcotest.(check string) "least budget" (show (big (fun () -> solve b))) (show (solve b));
  Alcotest.(check string) "one pivot less" "exhausted" (show (solve (b - 1)))

let test_fallback_no_events () =
  let p, obj = range_lp in
  let _, events = Obs.Trace.with_recording (fun () -> Lp.minimize p obj) in
  let _, events' = Obs.Trace.with_recording (fun () -> big (fun () -> Lp.minimize p obj)) in
  Alcotest.(check (list string)) "trace events"
    (List.map (fun (e : Obs.Trace.event) -> e.name) events')
    (List.map (fun (e : Obs.Trace.event) -> e.name) events)

(* Polyhedra over two variables in a box, whose coefficients range up
   to about 2^40, so that some solves leave the native range while
   building their tableau and some after a few pivots. *)
let arb_wide_poly2 =
  let coeff =
    QCheck.Gen.(
      frequency [ (4, int_range 0 10); (1, int_range 11 40) ] >>= fun bits ->
      int_range (-(1 lsl bits)) (1 lsl bits))
  in
  let gen_constr =
    QCheck.Gen.map
      (fun (a, b, k) -> Constr.ge [ a; b; k ])
      (QCheck.Gen.triple coeff coeff coeff)
  in
  QCheck.make
    QCheck.Gen.(
      map
        (fun cs ->
          Polyhedron.make 2
            (Constr.ge [ 1; 0; 0 ] :: Constr.ge [ 0; 1; 0 ]
            :: Constr.ge [ -1; 0; 1 lsl 20 ] :: Constr.ge [ 0; -1; 1 lsl 20 ] :: cs))
        (list_size (int_range 1 4) gen_constr))

(* [f ()] and how far it moved each count that the two tableaux must
   agree on *)
let effort f =
  let counters = Counters.[ lp_pivots; dual_pivots; warm_starts; warm_fallbacks ] in
  let before = List.map Counters.get counters in
  let r = f () in
  (r, List.map2 (fun c b -> Counters.get c - b) counters before)

(* One cold solve, and re-solves of its snapshot with [c] added, with
   [c] added as an equality, with the objective negated, and with both:
   each result with the counts it moved, and whether a re-solve that
   started natively finished on the rational tableau. *)
let solve_and_resolve p obj c =
  let (r, w), cold = effort (fun () -> Lp.minimize_warm p obj) in
  let ceq = Constr.make Constr.Eq (Constr.coeffs c) in
  let resolve w (add, obj) =
    let (r, w'), counts = effort (fun () -> Lp.reoptimize w ~add ~obj) in
    let left = Lp.is_native w && Option.fold ~none:false ~some:(Fun.negate Lp.is_native) w' in
    ((show r, counts), left)
  in
  ( (show r, cold),
    Option.fold ~none:[]
      ~some:(fun w ->
        List.map (resolve w)
          [ ([ c ], obj); ([ ceq ], obj); ([], Vec.neg obj); ([ c ], Vec.neg obj) ])
      w )

(* Both tableaux agree; and did a re-solve leave the native range? *)
let same_solves p obj c =
  let cold, resolves = solve_and_resolve p obj c in
  let cold', resolves' = big (fun () -> solve_and_resolve p obj c) in
  (cold = cold' && List.map fst resolves = List.map fst resolves', List.exists snd resolves)

(* The wide property also counts its cases with a re-solve that left
   the native range after starting on it, prints the count at exit, and
   fails when there were none: the fallback of a re-solve would go
   unchecked. About 7% of its cases do, so 300 cases all miss with odds
   of about 10^-9. *)
let native_rational_props ~bland =
  let name kind =
    Printf.sprintf "native and rational tableaux agree (%s%s)" kind
      (if bland then ", Bland" else "")
  in
  let obj2 = QCheck.pair (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3) in
  let cases = ref 0 and left = ref 0 in
  let prop kind ~count arb =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:(name kind) ~count (QCheck.triple arb arb_constr2 obj2)
         (fun (p, c, (c0, c1)) ->
           let same, exited =
             Chaos.arm ~bland (fun () -> same_solves p (vec [ c0; c1; 0 ]) c)
           in
           incr cases;
           if exited then incr left;
           same))
  in
  let wide_name, speed, wide = prop "wide" ~count:300 arb_wide_poly2 in
  at_exit (fun () ->
      if !cases > 0 then
        Printf.printf "\n%s: %d of %d cases left the native range mid-re-solve\n" wide_name
          !left !cases);
  [ prop "small" ~count:100 arb_bounded_poly2;
    ( wide_name,
      speed,
      fun () ->
        cases := 0;
        left := 0;
        wide ();
        if !left = 0 then Alcotest.fail "no case left the native range mid-re-solve" ) ]

(* max x + y + z over x, y, z >= 0 below three dense rows: the cold
   solve stays native, and the re-solve that adds [range_cut] leaves
   the native range in its dual phase, after counting dual pivots *)
let resolve_lp =
  ( Polyhedron.make 3
      (List.map Constr.ge
         [ [ -65; -204; -141; 168 ]; [ -56; -197; -175; 472 ]; [ -172; -15; -253; 380 ];
           [ 1; 0; 0; 0 ]; [ 0; 1; 0; 0 ]; [ 0; 0; 1; 0 ] ]),
    vec [ -1; -1; -1; 0 ] )

let range_cut = Constr.ge [ 44; 169; 248; -201 ]

let resolve_snapshot () =
  let p, obj = resolve_lp in
  match Lp.minimize_warm p obj with
  | Lp.Optimal _, Some w when Lp.is_native w -> w
  | _ -> Alcotest.fail "the cold solve does not finish natively"

(* A re-solve that leaves the native range gives the rational
   tableau's answer at its pivot counts. *)
let test_warm_fallback_same_answer () =
  let w = resolve_snapshot () and obj = snd resolve_lp in
  let resolve () = Lp.reoptimize w ~add:[ range_cut ] ~obj in
  let (r, w'), counts = effort resolve in
  let (r', _), counts' = effort (fun () -> big resolve) in
  Alcotest.(check bool) "finished on the rational tableau" false
    (Option.fold ~none:true ~some:Lp.is_native w');
  Alcotest.(check string) "result" (show r') (show r);
  Alcotest.(check (list int))
    "pivots, dual pivots, warm starts, warm fallbacks" counts' counts;
  Alcotest.(check bool) "dual pivots" true (List.nth counts 1 > 0)

(* ... and bills its budget once: at the least pivot budget under which
   the rational re-solve answers, the default one answers too. *)
let test_warm_fallback_budget () =
  let w = resolve_snapshot () and obj = snd resolve_lp in
  let resolve pivots =
    fst (Lp.reoptimize ~budget:(Budget.make ~pivots ()) w ~add:[ range_cut ] ~obj)
  in
  let rec least b =
    if b > 50 then Alcotest.fail "no budget lets the rational tableau answer"
    else match big (fun () -> resolve b) with Lp.Optimal _ -> b | _ -> least (b + 1)
  in
  let b = least 0 in
  Alcotest.(check string) "least budget" (show (big (fun () -> resolve b))) (show (resolve b));
  Alcotest.(check string) "one pivot less" "exhausted" (show (resolve (b - 1)))

(* A re-solve shares its snapshot's rows: one snapshot seeds re-solve
   A, then B, then A again, and both A runs match A from a fresh
   snapshot. So does A on the rational tableau, which converts the
   snapshot's rows after the native re-solves pivoted over them. *)
let test_snapshot_immutable () =
  let p =
    Polyhedron.make 3
      (List.map Constr.ge
         [ [ -2; -1; -1; 8 ]; [ -1; -3; -1; 9 ]; [ -1; -1; -2; 7 ]; [ 1; 0; 0; 0 ];
           [ 0; 1; 0; 0 ]; [ 0; 0; 1; 0 ] ])
  and obj = vec [ -1; -1; -1; 0 ] in
  let fresh () =
    match Lp.minimize_warm p obj with
    | Lp.Optimal _, Some w -> w
    | _ -> Alcotest.fail "no snapshot"
  in
  (* A pivots once in its dual phase and twice in phase 2, B twice in
     phase 2, each over rows of the snapshot *)
  let a w =
    let add = [ Constr.ge [ 1; -2; 1; -1 ] ] in
    show (fst (Lp.reoptimize w ~add ~obj:(vec [ 1; -2; -1; 0 ])))
  in
  let b w = ignore (Lp.reoptimize w ~add:[] ~obj:(vec [ -3; 1; -2; 0 ])) in
  let expect = a (fresh ()) and w = fresh () in
  let a1 = a w in
  b w;
  let a2 = a w in
  Alcotest.(check string) "A" expect a1;
  Alcotest.(check string) "A after B" expect a2;
  Alcotest.(check string) "A on the rational tableau" expect (big (fun () -> a w))

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
          Alcotest.test_case "feasible: cold search" `Quick test_ilp_feasible_cold;
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
            prop_warm_chain_matches_cold ] );
      ( "native",
        [ Alcotest.test_case "fallback: same answer and pivots" `Quick
            test_fallback_same_answer;
          Alcotest.test_case "fallback: budget billed once" `Quick test_fallback_budget;
          Alcotest.test_case "fallback: no trace events" `Quick test_fallback_no_events;
          Alcotest.test_case "warm fallback: same answer and pivots" `Quick
            test_warm_fallback_same_answer;
          Alcotest.test_case "warm fallback: budget billed once" `Quick
            test_warm_fallback_budget;
          Alcotest.test_case "snapshots stay as they were" `Quick test_snapshot_immutable ]
        @ native_rational_props ~bland:false @ native_rational_props ~bland:true ) ]
