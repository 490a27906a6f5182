(* Tests for constraints and polyhedra (Fourier-Motzkin core). *)

open Linalg
open Poly

let vec = Vec.of_int_list

(* --- Constr ----------------------------------------------------------- *)

let test_constr_normalization () =
  (* 2x + 4y + 6 >= 0 normalizes to x + 2y + 3 >= 0 *)
  let c = Constr.ge [ 2; 4; 6 ] in
  Alcotest.(check bool) "normalized" true
    (Vec.equal (Constr.coeffs c) (vec [ 1; 2; 3 ]));
  (* orientation preserved *)
  let c2 = Constr.ge [ -2; -4; -6 ] in
  Alcotest.(check bool) "orientation" true
    (Vec.equal (Constr.coeffs c2) (vec [ -1; -2; -3 ]))

let test_constr_eval_holds () =
  let c = Constr.ge [ 1; -1; 0 ] in
  (* x - y >= 0 *)
  Alcotest.(check bool) "holds" true (Constr.holds c (vec [ 3; 2 ]));
  Alcotest.(check bool) "boundary" true (Constr.holds c (vec [ 2; 2 ]));
  Alcotest.(check bool) "fails" false (Constr.holds c (vec [ 1; 2 ]));
  let e = Constr.eq [ 1; 1; -4 ] in
  Alcotest.(check bool) "eq holds" true (Constr.holds e (vec [ 1; 3 ]));
  Alcotest.(check bool) "eq fails" false (Constr.holds e (vec [ 1; 2 ]))

let test_constr_trivial () =
  Alcotest.(check (option bool)) "true" (Some true)
    (Constr.is_trivial (Constr.ge [ 0; 0; 5 ]));
  Alcotest.(check (option bool)) "false" (Some false)
    (Constr.is_trivial (Constr.ge [ 0; 0; -1 ]));
  Alcotest.(check (option bool)) "eq false" (Some false)
    (Constr.is_trivial (Constr.eq [ 0; 3 ]));
  Alcotest.(check (option bool)) "nontrivial" None
    (Constr.is_trivial (Constr.ge [ 1; 0; 0 ]))

let test_constr_negate () =
  (* not (x - 3 >= 0) over Z is -x + 2 >= 0 i.e. x <= 2 *)
  let c = Constr.negate_int (Constr.ge [ 1; -3 ]) in
  Alcotest.(check bool) "x=2 sat" true (Constr.holds c (vec [ 2 ]));
  Alcotest.(check bool) "x=3 unsat" false (Constr.holds c (vec [ 3 ]))

let test_constr_rename () =
  (* x0 + 2 x1 >= 0 over 2 vars -> x1 + 2 x3 over 4 vars *)
  let c = Constr.ge [ 1; 2; 0 ] in
  let r = Constr.rename ~dim_to:4 (fun i -> (2 * i) + 1) c in
  Alcotest.(check bool) "renamed" true
    (Vec.equal (Constr.coeffs r) (vec [ 0; 1; 0; 2; 0 ]))

let test_constr_tighten () =
  (* 2x - 3 >= 0 tightens to x - 2 >= 0 (x >= 3/2 means x >= 2 over Z) *)
  let c = Constr.unsafe_make Constr.Ge (vec [ 2; -3 ]) in
  let tight = Constr.tighten_int c in
  Alcotest.(check bool) "tightened" true
    (Vec.equal (Constr.coeffs tight) (vec [ 1; -2 ]))

(* --- Polyhedron -------------------------------------------------------- *)

(* the triangle 0 <= y <= x <= 5 *)
let triangle =
  Polyhedron.make 2
    [ Constr.ge [ 0; 1; 0 ] (* y >= 0 *);
      Constr.ge [ 1; -1; 0 ] (* x - y >= 0 *);
      Constr.ge [ -1; 0; 5 ] (* 5 - x >= 0 *) ]

let test_poly_contains () =
  Alcotest.(check bool) "inside" true (Polyhedron.contains_int triangle [| 3; 2 |]);
  Alcotest.(check bool) "vertex" true (Polyhedron.contains_int triangle [| 5; 5 |]);
  Alcotest.(check bool) "outside" false (Polyhedron.contains_int triangle [| 2; 3 |])

let test_poly_empty () =
  let p =
    Polyhedron.make 1 [ Constr.ge [ 1; 0 ] (* x >= 0 *); Constr.ge [ -1; -1 ] (* x <= -1 *) ]
  in
  Alcotest.(check bool) "empty" true (Polyhedron.is_empty p);
  Alcotest.(check bool) "nonempty" false (Polyhedron.is_empty triangle);
  Alcotest.(check bool) "universe nonempty" false
    (Polyhedron.is_empty (Polyhedron.make 3 []));
  Alcotest.(check bool) "canonical empty" true
    (Polyhedron.is_empty (Polyhedron.make 2 [ Constr.ge [ 0; 0; -1 ] ]))

let test_poly_empty_gap () =
  (* 1 <= 2x <= 1 within integers: x = 1/2, rational point but the
     equality normalization keeps it rationally non-empty; with strict
     integer gap 2x = 1 we rely on FM + tightening of inequalities *)
  let p =
    Polyhedron.make 1
      [ Constr.unsafe_make Constr.Ge (vec [ 2; -1 ]) (* 2x - 1 >= 0 *);
        Constr.unsafe_make Constr.Ge (vec [ -2; 1 ]) (* -2x + 1 >= 0 *) ]
  in
  (* tightening: x >= 1 and x <= 0 -> integer empty *)
  Alcotest.(check bool) "integer gap detected" true (Polyhedron.is_empty p)

let test_poly_eliminate () =
  (* project triangle onto x: expect 0 <= x <= 5 *)
  let proj = Polyhedron.eliminate triangle [ 1 ] in
  Alcotest.(check int) "dim" 1 (Polyhedron.dim proj);
  Alcotest.(check bool) "x=0" true (Polyhedron.contains_int proj [| 0 |]);
  Alcotest.(check bool) "x=5" true (Polyhedron.contains_int proj [| 5 |]);
  Alcotest.(check bool) "x=-1" false (Polyhedron.contains_int proj [| -1 |]);
  Alcotest.(check bool) "x=6" false (Polyhedron.contains_int proj [| 6 |])

let test_poly_eliminate_eq () =
  (* x = y, 0 <= x <= 3; eliminate x -> 0 <= y <= 3 *)
  let p =
    Polyhedron.make 2
      [ Constr.eq [ 1; -1; 0 ]; Constr.ge [ 1; 0; 0 ]; Constr.ge [ -1; 0; 3 ] ]
  in
  let proj = Polyhedron.eliminate p [ 0 ] in
  Alcotest.(check bool) "y=0" true (Polyhedron.contains_int proj [| 0 |]);
  Alcotest.(check bool) "y=3" true (Polyhedron.contains_int proj [| 3 |]);
  Alcotest.(check bool) "y=4" false (Polyhedron.contains_int proj [| 4 |])

let test_poly_integer_points () =
  let pts = Polyhedron.integer_points ~lo:[| 0; 0 |] ~hi:[| 5; 5 |] triangle in
  (* triangle 0 <= y <= x <= 5 has 6+5+4+3+2+1 = 21 integer points *)
  Alcotest.(check int) "count" 21 (List.length pts);
  List.iter
    (fun p ->
      Alcotest.(check bool) "all inside" true (Polyhedron.contains_int triangle p))
    pts

let test_poly_bounds () =
  let lower, upper, rest = Polyhedron.lower_upper_bounds triangle 0 in
  (* x appears with +1 in (x - y >= 0) -> lower for x;
     with -1 in (5 - x >= 0) -> upper; y >= 0 has no x *)
  Alcotest.(check int) "lower count" 1 (List.length lower);
  Alcotest.(check int) "upper count" 1 (List.length upper);
  Alcotest.(check int) "rest count" 1 (List.length rest)

let test_poly_dedup_keeps_tightest () =
  let p =
    Polyhedron.make 1
      [ Constr.ge [ -1; 10 ] (* x <= 10 *); Constr.ge [ -1; 5 ] (* x <= 5 *) ]
  in
  Alcotest.(check int) "one constraint survives" 1
    (List.length (Polyhedron.constraints p));
  Alcotest.(check bool) "tightest kept" false (Polyhedron.contains_int p [| 7 |]);
  Alcotest.(check bool) "5 ok" true (Polyhedron.contains_int p [| 5 |])

(* --- projection soundness property ------------------------------------- *)

(* Random small polyhedra in 3 vars; FM projection must (a) contain the
   shadow of every integer point and (b) over the box, contain no point
   whose fibre is integer-empty... (b) is not guaranteed over Z by FM
   (it is exact over Q), so we only check (a) plus rational exactness:
   every integer point of the projection lifts to a *rational* point. *)

let arb_poly3 =
  let gen_constr =
    QCheck.Gen.(
      map
        (fun (a, b, c, k) -> Constr.ge [ a; b; c; k ])
        (quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3)
           (int_range 0 6)))
  in
  QCheck.make
    QCheck.Gen.(map (fun cs -> Polyhedron.make 3 cs) (list_size (int_range 1 5) gen_constr))

let prop_projection_sound =
  QCheck.Test.make ~name:"FM projection contains all shadows" ~count:100 arb_poly3
    (fun p ->
      let proj = Polyhedron.eliminate p [ 2 ] in
      let pts = Polyhedron.integer_points ~lo:[| -4; -4; -4 |] ~hi:[| 4; 4; 4 |] p in
      List.for_all (fun pt -> Polyhedron.contains_int proj [| pt.(0); pt.(1) |]) pts)

let prop_empty_implies_no_points =
  QCheck.Test.make ~name:"is_empty implies no integer points in box" ~count:100
    arb_poly3
    (fun p ->
      (not (Polyhedron.is_empty p))
      || Polyhedron.integer_points ~lo:[| -4; -4; -4 |] ~hi:[| 4; 4; 4 |] p = [])

let prop_intersect_conjunction =
  QCheck.Test.make ~name:"intersection is conjunction on points" ~count:100
    (QCheck.pair arb_poly3 arb_poly3)
    (fun (a, b) ->
      let inter = Polyhedron.intersect a b in
      let box = ([| -2; -2; -2 |], [| 2; 2; 2 |]) in
      let lo, hi = box in
      Polyhedron.integer_points ~lo ~hi inter
      = List.filter (Polyhedron.contains_int b) (Polyhedron.integer_points ~lo ~hi a))

(* --- native row normalization --------------------------------------- *)

(* Rows of native ints are normalized on native ints
   ([Vec.normalize_int]); every other row, and every row under the
   [big_path] hook, on Bigint. A case is a few rows over three variables
   and the variables to project away. Half the cases draw small
   coefficients; half draw them up to 2^bits, with bits from 20 to 40,
   or take min_int, min_int + 1 or max_int. So projections normalize
   rows of native ints, rows whose entries grew past the native range,
   fractional rows (from equalities) and rows holding min_int, whose
   absolute value overflows. *)
let arb_row_case =
  let open QCheck.Gen in
  let rows =
    bool >>= fun wide ->
    (if wide then int_range 20 40 else return 3) >>= fun bits ->
    let edge = if wide then [ (3, oneofl [ min_int; min_int + 1; max_int ]) ] else [] in
    let coeff =
      frequency
        ([ (4, int_range (-3) 3); (12, int_range (-(1 lsl bits)) (1 lsl bits)) ] @ edge)
    in
    let kind = frequency [ (3, return Constr.Ge); (1, return Constr.Eq) ] in
    list_size (int_range 2 6) (pair kind (list_repeat 4 coeff))
  in
  let vars = int_range 1 7 >|= fun mask -> List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2 ] in
  let print (rows, vars) =
    let row (kind, cs) =
      (if kind = Constr.Eq then "eq " else "ge ") ^ String.concat " " (List.map string_of_int cs)
    in
    String.concat "; " (List.map row rows)
    ^ " | eliminate " ^ String.concat "," (List.map string_of_int vars)
  in
  QCheck.make ~print (pair rows vars)

(* The rows as constraints, and their projections over the integers and
   over the rationals: the same by default and on the generic path.
   Building rows without min_int moves no bignum counter, and neither
   does a one-variable projection of rows inside +-2^30, whose
   combinations (products below 2^60) stay native. A longer projection
   may combine rows the first step took past the native range, which
   the generic path rightly promotes. *)
let prop_row_normalization =
  QCheck.Test.make ~name:"native row normalization matches the generic path" ~count:500
    arb_row_case (fun (rows, vars) ->
      let make () = List.map (fun (kind, cs) -> Constr.make kind (vec cs)) rows in
      let project vars () =
        let p = Polyhedron.make 3 (make ()) in
        (Polyhedron.eliminate ~integer:true p vars, Polyhedron.eliminate ~integer:false p vars)
      in
      let bignum_moves f =
        Counters.scoped (fun () ->
            ignore (f ());
            Counters.(get promotions + get demotions))
      in
      let within b = List.for_all (fun (_, cs) -> List.for_all (fun c -> -b < c && c < b) cs) rows in
      let pi, pr = project vars () and pi', pr' = Chaos.arm ~big_path:true (project vars) in
      List.equal Constr.equal (make ()) (Chaos.arm ~big_path:true make)
      && Polyhedron.equal pi pi' && Polyhedron.equal pr pr'
      && (List.exists (fun (_, cs) -> List.mem min_int cs) rows || bignum_moves make = 0)
      && ((not (within (1 lsl 30))) || bignum_moves (project [ List.hd vars ]) = 0))

(* Golden pin of the frozen structural_key v1 format (see the contract
   in polyhedron.mli). The serving layer content-addresses requests
   with these keys, so a rendering change silently invalidates every
   persisted cache key: this test forces such a change to be a
   conscious, versioned one. *)
let test_structural_key_golden () =
  (* constraint keys: kind char + " <coeff>" per normalized coefficient *)
  Alcotest.(check string) "ge" "g 1 0" (Constr.structural_key (Constr.ge [ 1; 0 ]));
  Alcotest.(check string) "eq normalized" "e 1 2 3"
    (Constr.structural_key (Constr.eq [ 2; 4; 6 ]));
  Alcotest.(check string) "negative coeffs" "g -1 -2 -3"
    (Constr.structural_key (Constr.ge [ -2; -4; -6 ]));
  (* system key: dim, optional "!empty", then ";"-joined sorted constraints *)
  let p = Polyhedron.make 1 [ Constr.ge [ 1; 0 ]; Constr.eq [ 1; -3 ] ] in
  Alcotest.(check string) "1-d system" "1;e 1 -3;g 1 0"
    (Polyhedron.structural_key p);
  (* constraint order in the input must not matter *)
  let p' = Polyhedron.make 1 [ Constr.eq [ 1; -3 ]; Constr.ge [ 1; 0 ] ] in
  Alcotest.(check string) "input order irrelevant"
    (Polyhedron.structural_key p) (Polyhedron.structural_key p');
  (* construction-time falsity is part of the key (a trivially-false
     constraint sets the marker; the trivial constraint itself is
     dropped from the system) *)
  let e = Polyhedron.make 1 [ Constr.ge [ 1; 0 ]; Constr.ge [ 0; -1 ] ] in
  Alcotest.(check bool) "system is empty" true (Polyhedron.is_empty e);
  Alcotest.(check string) "empty marker" "1!empty;g 1 0"
    (Polyhedron.structural_key e);
  (* 2-d box, rational-free rendering *)
  let box =
    Polyhedron.make 2
      [ Constr.ge [ 1; 0; 0 ]; Constr.ge [ 0; 1; 0 ];
        Constr.ge [ -1; 0; 4 ]; Constr.ge [ 0; -1; 4 ] ]
  in
  Alcotest.(check string) "2-d box" "2;g -1 0 4;g 0 -1 4;g 0 1 0;g 1 0 0"
    (Polyhedron.structural_key box)

(* [rename] classifies its output as [make] does: merged columns that
   cancel leave a trivial row, which must not stay in the system. *)
let test_rename_classifies () =
  (* x0 - x1 - 1 >= 0 with both columns on one is -1 >= 0 *)
  let rows = [ Constr.ge [ 1; -1; -1 ]; Constr.ge [ 0; 1; 0 ] ] in
  let collapse p = Polyhedron.rename p ~dim_to:1 (fun _ -> 0) in
  let r = collapse (Polyhedron.make 2 rows) in
  Alcotest.(check string) "falsity marks the result empty" "1!empty;g 1 0"
    (Polyhedron.structural_key r);
  Alcotest.(check bool) "as make over the renamed rows" true
    (Polyhedron.equal r
       (Polyhedron.make 1
          (List.map (Constr.rename ~dim_to:1 (fun _ -> 0)) rows)));
  (* x0 - x1 >= 0 with both columns on one is 0 >= 0, trivially true *)
  let r = collapse (Polyhedron.make 2 [ Constr.ge [ 1; -1; 0 ]; Constr.ge [ 0; 1; -1 ] ]) in
  Alcotest.(check string) "trivially true rows are dropped" "1;g 1 -1"
    (Polyhedron.structural_key r)

(* --- differential: merge-based operations against sort-based ones ------- *)

(* The sort-based implementation the merge-based one replaced, kept as
   the reference: every operation rebuilt the stored list with a full
   sort. Its [rename] also classifies, as [make] does (see
   [test_rename_classifies]). *)
module Ref = struct
  type t = { dim : int; cons : Constr.t list; known_empty : bool }

  let false_row dim = Constr.make Constr.Ge (Vec.of_ints (Array.init (dim + 1) (fun i -> if i = dim then -1 else 0)))
  let constraints p = if p.known_empty then [ false_row p.dim ] else p.cons

  let dedup cons =
    let cmp_varpart a b =
      let ka = Constr.kind a and kb = Constr.kind b in
      if ka <> kb then compare ka kb
      else begin
        let ca = Constr.coeffs a and cb = Constr.coeffs b in
        let n = Vec.dim ca - 1 in
        let rec go i =
          if i >= n then 0
          else match Q.compare ca.(i) cb.(i) with 0 -> go (i + 1) | c -> c
        in
        go 0
      end
    in
    let sorted =
      List.sort
        (fun a b ->
          match cmp_varpart a b with
          | 0 -> Q.compare (Constr.const a) (Constr.const b)
          | c -> c)
        cons
    in
    let rec keep = function
      | [] -> []
      | a :: rest ->
        let rest =
          if Constr.kind a = Constr.Ge then drop_same_group a rest
          else drop_exact_dups a rest
        in
        a :: keep rest
    and drop_same_group a = function
      | b :: rest when Constr.kind b = Constr.Ge && cmp_varpart a b = 0 ->
        drop_same_group a rest
      | rest -> rest
    and drop_exact_dups a = function
      | b :: rest when Constr.equal a b -> drop_exact_dups a rest
      | rest -> rest
    in
    keep sorted

  let classify cons =
    let useful = ref [] and falsity = ref false in
    List.iter
      (fun c ->
        match Constr.is_trivial c with
        | Some true -> ()
        | Some false -> falsity := true
        | None -> useful := c :: !useful)
      cons;
    (!falsity, dedup !useful)

  let make dim cons =
    let falsity, cons = classify cons in
    { dim; cons; known_empty = falsity }

  let empty dim = { dim; cons = []; known_empty = true }

  let add p c =
    match Constr.is_trivial c with
    | Some true -> p
    | Some false -> { p with known_empty = true }
    | None -> { p with cons = dedup (c :: p.cons) }

  let add_list p cs = List.fold_left add p cs

  let intersect a b =
    { dim = a.dim; cons = dedup (a.cons @ b.cons);
      known_empty = a.known_empty || b.known_empty }

  (* [Constr.rename], copied so that the reference shares no code with
     the operations it checks *)
  let rename_row ~dim_to f c =
    let v = Vec.zero (dim_to + 1) in
    for i = 0 to Constr.dim c - 1 do
      let a = Constr.coeff c i in
      if not (Q.is_zero a) then v.(f i) <- Q.add v.(f i) a
    done;
    v.(dim_to) <- Constr.const c;
    Constr.make (Constr.kind c) v

  let fm_step ~integer cons k =
    let coeff c = Constr.coeff c k in
    let with_k, without_k = List.partition (fun c -> not (Q.is_zero (coeff c))) cons in
    let with_k = if integer then List.map Constr.tighten_int with_k else with_k in
    match List.find_opt (fun c -> Constr.kind c = Constr.Eq) with_k with
    | Some e ->
      let a = coeff e in
      List.filter_map
        (fun c ->
          if c == e then None
          else begin
            let f = Q.neg (Q.div (coeff c) a) in
            let v = Vec.add (Constr.coeffs c) (Vec.scale f (Constr.coeffs e)) in
            Some (Constr.make (Constr.kind c) v)
          end)
        with_k
      @ without_k
    | None ->
      let pos, neg = List.partition (fun c -> Q.sign (coeff c) > 0) with_k in
      List.concat_map
        (fun p ->
          List.map
            (fun m ->
              let v =
                Vec.add
                  (Vec.scale (Q.abs (coeff m)) (Constr.coeffs p))
                  (Vec.scale (coeff p) (Constr.coeffs m))
              in
              let c = Constr.make Constr.Ge v in
              if integer then Constr.tighten_int c else c)
            neg)
        pos
      @ without_k

  let eliminate ~integer p vars =
    let vars = List.sort_uniq compare vars in
    let new_dim = p.dim - List.length vars in
    if p.known_empty then empty new_dim
    else begin
      let cons = ref p.cons and empty_found = ref false in
      List.iter
        (fun k ->
          if not !empty_found then begin
            let falsity, cleaned = classify (fm_step ~integer !cons k) in
            if falsity then empty_found := true else cons := cleaned
          end)
        vars;
      if !empty_found then empty new_dim
      else begin
        let keep = List.filter (fun i -> not (List.mem i vars)) (List.init p.dim Fun.id) in
        let index_of old_i =
          let rec find j = function
            | [] -> assert false
            | i :: rest -> if i = old_i then j else find (j + 1) rest
          in
          find 0 keep
        in
        make new_dim (List.map (rename_row ~dim_to:new_dim index_of) !cons)
      end
    end

  let rename p ~dim_to f =
    let falsity, cons = classify (List.map (rename_row ~dim_to f) p.cons) in
    { dim = dim_to; cons; known_empty = p.known_empty || falsity }

  let filter f p = make p.dim (List.filteri f (constraints p))

  let structural_key p =
    String.concat ""
      ((string_of_int p.dim ^ if p.known_empty then "!empty" else "")
      :: List.map
           (fun c -> ";" ^ Constr.structural_key c)
           (List.sort Constr.compare p.cons))

  let equal a b =
    a.dim = b.dim && a.known_empty = b.known_empty
    && List.equal Constr.equal
         (List.sort Constr.compare a.cons)
         (List.sort Constr.compare b.cons)

  (* the stored list as it is, unsorted, in the structural_key format *)
  let stored p =
    String.concat ""
      ((string_of_int p.dim ^ if p.known_empty then "!empty" else "")
      :: List.map (fun c -> ";" ^ Constr.structural_key c) p.cons)
end

(* Systems that hit every case of the stored order: rows come in groups
   that share a kind and a variable part, so duplicates, parallel
   inequalities with different constants and contradictory equalities
   are common; some groups are trivial (zero variable part), true or
   false, so known-empty inputs occur too. *)
let gen_group dim =
  QCheck.Gen.(
    let* kind = frequency [ (3, return Constr.Ge); (1, return Constr.Eq) ] in
    let* trivial = frequency [ (6, return false); (1, return true) ] in
    let* vars =
      if trivial then return (List.init dim (fun _ -> 0))
      else list_repeat dim (int_range (-2) 2)
    in
    let* consts = list_size (int_range 1 3) (int_range (-3) 3) in
    return
      (List.map (fun k -> Constr.make kind (Vec.of_int_list (vars @ [ k ]))) consts))

let gen_rows dim = QCheck.Gen.(map List.concat (list_size (int_range 0 4) (gen_group dim)))

type op =
  | Add of Constr.t
  | Add_list of Constr.t list
  | Intersect of Constr.t list
  | Eliminate of bool * int list
  | Rename of int * int array
  | Filter of bool list

(* a run of operations, each drawn for the dimension the previous ones
   leave *)
let gen_ops =
  QCheck.Gen.(
    let op dim =
      let rows = gen_rows dim in
      frequency
        [ (2, map (fun g -> (Add (List.hd g), dim)) (gen_group dim));
          (2, map (fun rs -> (Add_list rs, dim)) rows);
          (2, map (fun rs -> (Intersect rs, dim)) rows);
          ( (if dim = 0 then 0 else 2),
            let* integer = bool in
            let* vars = list_size (int_range 1 2) (int_range 0 (max 0 (dim - 1))) in
            return (Eliminate (integer, vars), dim - List.length (List.sort_uniq compare vars)) );
          ( 3,
            let* dim_to = int_range 1 4 in
            let* f = array_repeat dim (int_range 0 (dim_to - 1)) in
            return (Rename (dim_to, f), dim_to) );
          (2, map (fun keep -> (Filter keep, dim)) (list_repeat 40 bool)) ]
    in
    let rec ops dim n =
      if n = 0 then return []
      else
        let* o, dim' = op dim in
        let* rest = ops dim' (n - 1) in
        return (o :: rest)
    in
    let* dim = int_range 0 3 in
    let* rows = gen_rows dim in
    let* n = int_range 1 5 in
    let* ops = ops dim n in
    return (dim, rows, ops))

let pp_op = function
  | Add c -> Format.asprintf "add %a" (Constr.pp ?names:None) c
  | Add_list cs | Intersect cs ->
    Format.asprintf "add_list/intersect [%s]"
      (String.concat "; " (List.map (Format.asprintf "%a" (Constr.pp ?names:None)) cs))
  | Eliminate (integer, vars) ->
    Printf.sprintf "eliminate ~integer:%b [%s]" integer
      (String.concat ";" (List.map string_of_int vars))
  | Rename (dim_to, f) ->
    Printf.sprintf "rename ~dim_to:%d [%s]" dim_to
      (String.concat ";" (Array.to_list (Array.map string_of_int f)))
  | Filter keep ->
    Printf.sprintf "filter [%s]"
      (String.concat "" (List.map (fun b -> if b then "1" else "0") keep))

let arb_ops =
  QCheck.make
    ~print:(fun (dim, rows, ops) ->
      Printf.sprintf "dim %d, rows [%s], ops: %s" dim
        (String.concat "; " (List.map (Format.asprintf "%a" (Constr.pp ?names:None)) rows))
        (String.concat ", " (List.map pp_op ops)))
    gen_ops

(* After every operation the merge-based polyhedron holds the
   reference's rows element for element, in order, with the same
   known-empty marker, and its sort-free [structural_key] and [equal]
   agree with the sorting ones. *)
let prop_merge_matches_sort =
  QCheck.Test.make ~name:"merge-based operations match the sort-based reference"
    ~count:2000 arb_ops (fun (dim, rows, ops) ->
      let same p r =
        Polyhedron.dim p = r.Ref.dim
        && List.equal Constr.equal (Polyhedron.constraints p) (Ref.constraints r)
        && Polyhedron.structural_key p = Ref.stored r
        && Polyhedron.structural_key p = Ref.structural_key r
      in
      let step (p, r) = function
        | Add c -> (Polyhedron.add p c, Ref.add r c)
        | Add_list cs -> (Polyhedron.add_list p cs, Ref.add_list r cs)
        | Intersect cs ->
          ( Polyhedron.intersect p (Polyhedron.make (Polyhedron.dim p) cs),
            Ref.intersect r (Ref.make r.Ref.dim cs) )
        | Eliminate (integer, vars) ->
          (* keep Fourier-Motzkin small *)
          if List.length (Polyhedron.constraints p) > 24 then (p, r)
          else (Polyhedron.eliminate ~integer p vars, Ref.eliminate ~integer r vars)
        | Rename (dim_to, f) ->
          (Polyhedron.rename p ~dim_to (Array.get f), Ref.rename r ~dim_to (Array.get f))
        | Filter keep ->
          let f i _ = List.nth keep (i mod List.length keep) in
          (Polyhedron.filter f p, Ref.filter f r)
      in
      let start = (Polyhedron.make dim rows, Ref.make dim rows) in
      same (fst start) (snd start)
      && snd
           (List.fold_left
              (fun ((p, r), ok) op ->
                let p', r' = step (p, r) op in
                ((p', r'), ok && same p' r'
                          && Polyhedron.equal p p' = Ref.equal r r'))
              (start, true) ops))

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "poly"
    [ ( "constr",
        [ Alcotest.test_case "normalization" `Quick test_constr_normalization;
          Alcotest.test_case "eval/holds" `Quick test_constr_eval_holds;
          Alcotest.test_case "trivial" `Quick test_constr_trivial;
          Alcotest.test_case "negate_int" `Quick test_constr_negate;
          Alcotest.test_case "rename" `Quick test_constr_rename;
          Alcotest.test_case "tighten_int" `Quick test_constr_tighten ] );
      ( "polyhedron",
        [ Alcotest.test_case "contains" `Quick test_poly_contains;
          Alcotest.test_case "emptiness" `Quick test_poly_empty;
          Alcotest.test_case "integer gap" `Quick test_poly_empty_gap;
          Alcotest.test_case "eliminate (FM)" `Quick test_poly_eliminate;
          Alcotest.test_case "eliminate via equality" `Quick test_poly_eliminate_eq;
          Alcotest.test_case "integer points" `Quick test_poly_integer_points;
          Alcotest.test_case "lower/upper bounds" `Quick test_poly_bounds;
          Alcotest.test_case "dedup tightest" `Quick test_poly_dedup_keeps_tightest;
          Alcotest.test_case "rename classifies" `Quick test_rename_classifies;
          Alcotest.test_case "structural_key golden (frozen v1)" `Quick
            test_structural_key_golden ] );
      ( "poly-props",
        qt
          [ prop_projection_sound; prop_empty_implies_no_points;
            prop_intersect_conjunction; prop_merge_matches_sort; prop_row_normalization ] ) ]
