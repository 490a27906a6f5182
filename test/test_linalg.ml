(* Tests for the exact-arithmetic substrate: Bigint, Q, Vec, Mat. *)

open Linalg

let bi = Bigint.of_int
let q = Q.of_int
let qdiv n d = Q.div (Q.of_bigint n) (Q.of_bigint d)
let qq n d = qdiv (bi n) (bi d)

(* a decimal literal built digit by digit with [mul] and [add], for
   operands beyond the native range *)
let big s =
  let digits = if s.[0] = '-' then String.sub s 1 (String.length s - 1) else s in
  let v =
    String.fold_left
      (fun acc c ->
        Bigint.add (Bigint.mul acc (bi 10)) (bi (Char.code c - Char.code '0')))
      Bigint.zero digits
  in
  if s.[0] = '-' then Bigint.neg v else v

let babs x = if Bigint.sign x < 0 then Bigint.neg x else x
let bsub x y = Bigint.add x (Bigint.neg y)

(* [2^k] by repeated doubling *)
let pow2 k =
  List.fold_left (fun acc _ -> Bigint.mul acc (bi 2)) Bigint.one (List.init k Fun.id)

(* --- Bigint unit tests ------------------------------------------------ *)

let test_bigint_basics () =
  Alcotest.(check string) "zero" "0" (Bigint.to_string Bigint.zero);
  Alcotest.(check string) "neg" "-42" (Bigint.to_string (bi (-42)));
  Alcotest.(check int) "to_int roundtrip" 123456789 (Bigint.to_int (bi 123456789));
  Alcotest.(check int) "sign pos" 1 (Bigint.sign (bi 5));
  Alcotest.(check int) "sign neg" (-1) (Bigint.sign (bi (-5)));
  Alcotest.(check int) "sign zero" 0 (Bigint.sign Bigint.zero);
  Alcotest.(check bool) "min_int of_int" true
    (Bigint.equal (bi min_int) (Bigint.neg (Bigint.add (bi max_int) Bigint.one)))

let test_bigint_string () =
  let s = "123456789012345678901234567890" in
  Alcotest.(check string) "roundtrip big" s (Bigint.to_string (big s));
  let s2 = "-999999999999999999999999" in
  Alcotest.(check string) "roundtrip neg big" s2 (Bigint.to_string (big s2))

let test_bigint_arith_large () =
  let a = big "123456789012345678901234567890" in
  let b = big "987654321098765432109876543210" in
  Alcotest.(check string) "add"
    "1111111110111111111011111111100"
    Bigint.(to_string (add a b));
  Alcotest.(check string) "mul"
    "121932631137021795226185032733622923332237463801111263526900"
    Bigint.(to_string (mul a b));
  let p = Bigint.mul a b in
  Alcotest.(check bool) "div undoes mul" true Bigint.(equal (div p b) a);
  Alcotest.(check bool) "a divides a * b" true Bigint.(equal (mul (div p a) a) p)

let test_bigint_divmod_signs () =
  (* truncated semantics must match OCaml's / and mod; the remainder's
     sign shows in the floor and ceiling quotients *)
  List.iter
    (fun (a, b) ->
      let q = a / b and r = a mod b in
      Alcotest.(check int) (Printf.sprintf "q %d/%d" a b) q
        (Bigint.to_int (Bigint.div (bi a) (bi b)));
      Alcotest.(check int) (Printf.sprintf "r %d/%d" a b)
        (if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q)
        (Bigint.to_int (Bigint.fdiv (bi a) (bi b)));
      Alcotest.(check int) (Printf.sprintf "r' %d/%d" a b)
        (if r <> 0 && (r < 0) = (b < 0) then q + 1 else q)
        (Bigint.to_int (Bigint.cdiv (bi a) (bi b))))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (12, 4); (-12, 4); (1, 7) ]

let test_bigint_fdiv_cdiv () =
  let check name expect a b f =
    Alcotest.(check int) name expect (Bigint.to_int (f (bi a) (bi b)))
  in
  check "fdiv 7 2" 3 7 2 Bigint.fdiv;
  check "fdiv -7 2" (-4) (-7) 2 Bigint.fdiv;
  check "fdiv 7 -2" (-4) 7 (-2) Bigint.fdiv;
  check "cdiv 7 2" 4 7 2 Bigint.cdiv;
  check "cdiv -7 2" (-3) (-7) 2 Bigint.cdiv;
  check "cdiv 6 3" 2 6 3 Bigint.cdiv;
  check "fdiv 6 3" 2 6 3 Bigint.fdiv

let test_bigint_gcd () =
  Alcotest.(check int) "gcd 12 18" 6 Bigint.(to_int (gcd (bi 12) (bi 18)));
  Alcotest.(check int) "gcd -12 18" 6 Bigint.(to_int (gcd (bi (-12)) (bi 18)));
  Alcotest.(check int) "gcd 0 0" 0 Bigint.(to_int (gcd Bigint.zero Bigint.zero));
  Alcotest.(check int) "gcd 0 7" 7 Bigint.(to_int (gcd Bigint.zero (bi 7)));
  Alcotest.(check int) "lcm 4 6" 12 Bigint.(to_int (lcm (bi 4) (bi 6)))

let test_bigint_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.div Bigint.one Bigint.zero))

(* Knuth division stress: exercise the add-back branch neighborhood with
   divisors just below digit boundaries. *)
let test_bigint_knuth_stress () =
  let b30 = pow2 30 in
  let pred x = bsub x Bigint.one in
  let cases =
    [ (pred (pow2 90), pred b30);
      (pow2 120, Bigint.add b30 Bigint.one);
      (pred (pow2 150), pred (pow2 60));
      (big "340282366920938463463374607431768211455",
       big "18446744073709551615") ]
  in
  List.iter
    (fun (a, b) ->
      let r = bsub a (Bigint.mul (Bigint.div a b) b) in
      Alcotest.(check bool) "0 <= a - (a / b) * b < b" true
        (Bigint.sign r >= 0 && Bigint.compare r b < 0))
    cases

(* --- representation boundary: of_int/to_int round-trips ----------------- *)

let test_bigint_boundary_roundtrip () =
  (* every native int must round-trip unboxed, including the extremes
     and the base-2^30 digit boundaries *)
  List.iter
    (fun n ->
      let x = bi n in
      Alcotest.(check int) (Printf.sprintf "roundtrip %d" n) n (Bigint.to_int x);
      Alcotest.(check bool) (Printf.sprintf "small %d" n) true (Bigint.is_small x);
      Alcotest.(check bool) (Printf.sprintf "fits %d" n) true
        (Bigint.to_int_opt x = Some n);
      Alcotest.(check string) (Printf.sprintf "string %d" n) (string_of_int n)
        (Bigint.to_string x))
    [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1;
      1 lsl 30; -(1 lsl 30); (1 lsl 30) - 1; (1 lsl 30) + 1;
      1 lsl 60; -(1 lsl 60) ]

let test_bigint_boundary_promotion () =
  (* 2^62 = |min_int| + 1 values: first magnitudes that need Big *)
  let p62 = pow2 62 in
  Alcotest.(check bool) "2^62 is big" false (Bigint.is_small p62);
  Alcotest.(check bool) "to_int_opt 2^62" true (Bigint.to_int_opt p62 = None);
  Alcotest.check_raises "to_int 2^62" (Failure "Bigint.to_int: does not fit")
    (fun () -> ignore (Bigint.to_int p62));
  (* -2^62 = min_int demotes back to Small *)
  let m62 = Bigint.neg p62 in
  Alcotest.(check bool) "-2^62 is small" true (Bigint.is_small m62);
  Alcotest.(check int) "-2^62 = min_int" min_int (Bigint.to_int m62);
  (* crossing the boundary by one in both directions *)
  let succ x = Bigint.add x Bigint.one and pred x = bsub x Bigint.one in
  Alcotest.(check bool) "max_int + 1 is big" false
    (Bigint.is_small (succ (bi max_int)));
  Alcotest.(check bool) "min_int - 1 is big" false
    (Bigint.is_small (pred (bi min_int)));
  Alcotest.(check int) "(max_int + 1) - 1 demotes" max_int
    (Bigint.to_int (pred (succ (bi max_int))));
  Alcotest.(check int) "(min_int - 1) + 1 demotes" min_int
    (Bigint.to_int (succ (pred (bi min_int))));
  (* |min_int| overflows native negation: must promote *)
  Alcotest.(check string) "neg min_int" "4611686018427387904"
    (Bigint.to_string (Bigint.neg (bi min_int)));
  Alcotest.(check string) "abs min_int (gcd with zero)" "4611686018427387904"
    (Bigint.to_string (Bigint.gcd (bi min_int) Bigint.zero))

(* --- Small/Big differential suite ----------------------------------------
   The two representations must be observationally identical. Operands are
   generated to straddle the promotion boundary (native products of large
   ints), and each operation is evaluated with canonical operands and with
   operands forced into the boxed Big representation; results must agree
   and be canonical (Small iff the value fits a native int). *)

let canonical x =
  (* a value is canonical iff it is Small exactly when it parses as int *)
  match int_of_string_opt (Bigint.to_string x) with
  | Some _ -> Bigint.is_small x
  | None -> not (Bigint.is_small x)

(* ints biased toward the 2^30 digit and 2^62 promotion boundaries *)
let boundary_int =
  QCheck.Gen.(
    oneof
      [ int_range (-1000) 1000;
        oneofl
          [ min_int; max_int; min_int + 1; max_int - 1;
            1 lsl 30; -(1 lsl 30); (1 lsl 30) - 1; (1 lsl 30) + 1;
            1 lsl 31; -(1 lsl 31); 1 lsl 60; -(1 lsl 60); 0; 1; -1 ];
        int_range (-(1 lsl 40)) (1 lsl 40);
        int ])

(* an operand is a * b + c: products of boundary ints straddle Small/Big *)
let arb_operand =
  QCheck.make
    ~print:(fun (a, b, c) ->
      Printf.sprintf "%d * %d + %d" a b c)
    QCheck.Gen.(triple boundary_int boundary_int boundary_int)

let operand (a, b, c) = Bigint.add (Bigint.mul (bi a) (bi b)) (bi c)

let differential_binop name f =
  QCheck.Test.make ~name:(Printf.sprintf "differential %s" name) ~count:2000
    (QCheck.pair arb_operand arb_operand)
    (fun (ta, tb) ->
      let x = operand ta and y = operand tb in
      let r = f x y in
      let variants =
        [ f (Bigint.force_big x) (Bigint.force_big y);
          f (Bigint.force_big x) y;
          f x (Bigint.force_big y) ]
      in
      canonical r
      && List.for_all
           (fun v -> String.equal (Bigint.to_string r) (Bigint.to_string v))
           variants)

let diff_add = differential_binop "add" Bigint.add
let diff_sub = differential_binop "sub" bsub
let diff_mul = differential_binop "mul" Bigint.mul

let diff_divmod =
  QCheck.Test.make ~name:"differential divmod" ~count:2000
    (QCheck.pair arb_operand arb_operand)
    (fun (ta, tb) ->
      let x = operand ta and y = operand tb in
      QCheck.assume (not (Bigint.is_zero y));
      let q1 = Bigint.div x y in
      let q2 = Bigint.div (Bigint.force_big x) (Bigint.force_big y) in
      let r1 = bsub x (Bigint.mul q1 y) in
      canonical q1 && canonical r1
      && Bigint.equal q1 q2
      (* truncated division invariants *)
      && (Bigint.is_zero r1 || Bigint.sign r1 = Bigint.sign x)
      && Bigint.compare (babs r1) (babs y) < 0)

let diff_gcd =
  QCheck.Test.make ~name:"differential gcd" ~count:2000
    (QCheck.pair arb_operand arb_operand)
    (fun (ta, tb) ->
      let x = operand ta and y = operand tb in
      let g1 = Bigint.gcd x y in
      let g2 = Bigint.gcd (Bigint.force_big x) (Bigint.force_big y) in
      canonical g1
      && Bigint.equal g1 g2
      && Stdlib.( >= ) (Bigint.sign g1) 0
      && (Bigint.is_zero g1
          || Bigint.(equal (mul (div x g1) g1) x && equal (mul (div y g1) g1) y)))

let diff_compare =
  (* mixed canonical/forced comparison is unspecified (see the mli), so
     compare forced against forced and canonical against canonical *)
  QCheck.Test.make ~name:"differential compare" ~count:2000
    (QCheck.pair arb_operand arb_operand)
    (fun (ta, tb) ->
      let x = operand ta and y = operand tb in
      Bigint.compare x y
      = Bigint.compare (Bigint.force_big x) (Bigint.force_big y)
      && Bigint.equal x y
         = Bigint.equal (Bigint.force_big x) (Bigint.force_big y))

(* [Q.sub_mul a f b] must be [Q.sub a (Q.mul f b)] to the bit and to the
   counter: its native fast path may finish only where the generic calls
   would neither promote nor demote. Operands are fractions over ints at
   the boundaries (±2^31, min_int = -2^62, max_int, arbitrary), with an
   optional negation that lifts min_int to the Big +2^62; run with the
   big-path hook off and on. *)
let arb_q_operand =
  QCheck.make
    ~print:(fun (n, d, negate) -> Printf.sprintf "%s%d / |%d|" (if negate then "-" else "") n d)
    QCheck.Gen.(
      triple boundary_int
        (oneof [ return 1; boundary_int ])
        (frequency [ (4, return false); (1, return true) ]))

let q_operand (n, d, negate) =
  let num = if negate then Bigint.neg (bi n) else bi n in
  let den = if d = 0 then Bigint.one else babs (bi d) in
  qdiv num den

let diff_sub_mul ~chaos =
  QCheck.Test.make
    ~name:(Printf.sprintf "sub_mul = sub a (mul f b), chaos %b" chaos)
    ~count:3000
    (QCheck.triple arb_q_operand arb_q_operand arb_q_operand)
    (fun (ta, tf, tb) ->
      let a = q_operand ta and f = q_operand tf and b = q_operand tb in
      let counts () = (Counters.(get promotions), Counters.(get demotions)) in
      Chaos.arm ~big_path:chaos (fun () ->
          let p0, d0 = counts () in
          let generic = Q.sub a (Q.mul f b) in
          let p1, d1 = counts () in
          let fused = Q.sub_mul a f b in
          let p2, d2 = counts () in
          Q.equal generic fused
          && String.equal (Q.to_string generic) (Q.to_string fused)
          && Bigint.is_small (Q.num fused) = Bigint.is_small (Q.num generic)
          && Bigint.is_small (Q.den fused) = Bigint.is_small (Q.den generic)
          && p1 - p0 = p2 - p1
          && d1 - d0 = d2 - d1))

(* The arithmetic transcript: every public Bigint and Q operation over a
   seeded set of boundary operands, one line per call holding the
   result and the promotions/demotions the call caused, with the
   big-path hook off and on. Its MD5 was recorded before Bigint
   and Q moved to the immediate layout, so a port that changes any
   value, representation or counter delta fails here, whichever path
   the change took. The operands come from a fixed splitmix64 stream,
   so the transcript does not depend on the compiler's [Random]. The
   MD5 is that of the full recorded transcript with the lines of
   operations since removed from the interface filtered out (see
   CHANGES.md for the command). *)
let transcript_stream seed =
  let s = ref (Int64.of_int seed) in
  fun () ->
    s := Int64.add !s 0x9E3779B97F4A7C15L;
    let z = !s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31))

let transcript_ints next =
  [ 0; 1; -1; 2; -2; 3; 6; -10; (1 lsl 30) - 1; 1 lsl 30; -(1 lsl 30);
    (1 lsl 31) - 1; 1 lsl 31; -(1 lsl 31); 1 lsl 60; max_int; max_int - 1;
    min_int; min_int + 1 ]
  @ List.init 4 (fun _ -> next () asr 40)
  @ List.init 4 (fun _ -> next ())

let transcript_bigints next ints =
  let p62 = Bigint.neg (bi min_int) in
  List.map bi ints
  @ [ p62; Bigint.add p62 Bigint.one; bsub (bi min_int) Bigint.one;
      Bigint.mul p62 (bi 3); Bigint.neg (Bigint.mul p62 p62);
      Bigint.mul (bi (next ())) (bi (next ())) ]

let transcript_rationals next zs =
  let pick () = List.nth zs (next () land max_int mod List.length zs) in
  List.map Q.of_bigint zs
  @ List.filter_map
      (fun _ ->
        let d = pick () in
        if Bigint.is_zero d then None else Some (qdiv (pick ()) d))
      (List.init 24 Fun.id)

let arithmetic_transcript () =
  let next = transcript_stream 15 in
  let ints = transcript_ints next in
  let zs = transcript_bigints next ints in
  let qs = transcript_rationals next zs in
  let triples =
    let qa = Array.of_list qs in
    let pick () = qa.(next () land max_int mod Array.length qa) in
    List.init 4000 (fun _ ->
        let x = pick () in
        let f = pick () in
        (x, f, pick ()))
  in
  let buf = Buffer.create (1 lsl 20) in
  let z x = Bigint.to_string x ^ if Bigint.is_small x then "" else "#" in
  let r x =
    Printf.sprintf "%s:%s%s" (Q.to_string x)
      (if Bigint.is_small (Q.num x) then "" else "#")
      (if Bigint.is_small (Q.den x) then "" else "#")
  in
  let b = string_of_bool and i = string_of_int in
  let line op args show f =
    let counts () = (Counters.(get promotions), Counters.(get demotions)) in
    let p0, d0 = counts () in
    let res = try show (f ()) with e -> "raise " ^ Printexc.to_string e in
    let p1, d1 = counts () in
    Printf.bprintf buf "%s %s = %s +%d/%d\n" op (String.concat " " args) res
      (p1 - p0) (d1 - d0)
  in
  let run () =
    List.iter
      (fun n ->
        let a = [ i n ] in
        line "of_int" a z (fun () -> Bigint.of_int n);
        line "Q.of_int" a r (fun () -> Q.of_int n))
      ints;
    List.iter
      (fun (name, c) -> line name [] z (fun () -> c))
      Bigint.[ ("zero", zero); ("one", one) ];
    List.iter
      (fun (name, c) -> line name [] r (fun () -> c))
      Q.[ ("Q.zero", zero); ("Q.one", one); ("Q.minus_one", minus_one) ];
    List.iter
      (fun x ->
        let a = [ z x ] in
        line "to_int" a i (fun () -> Bigint.to_int x);
        line "to_int_opt" a
          (function None -> "none" | Some n -> i n)
          (fun () -> Bigint.to_int_opt x);
        line "to_string" a Fun.id (fun () -> Bigint.to_string x);
        line "sign" a i (fun () -> Bigint.sign x);
        line "is_zero" a b (fun () -> Bigint.is_zero x);
        line "is_one" a b (fun () -> Bigint.is_one x);
        line "is_small" a b (fun () -> Bigint.is_small x);
        line "unbox" a i (fun () -> Bigint.unbox x);
        line "force_big" a
          (fun y -> Bigint.to_string y ^ " " ^ b (Bigint.is_small y))
          (fun () -> Bigint.force_big x);
        line "neg" a z (fun () -> Bigint.neg x);
        line "Q.of_bigint" a r (fun () -> Q.of_bigint x);
        List.iter
          (fun y ->
            let a = [ z x; z y ] in
            line "add" a z (fun () -> Bigint.add x y);
            line "mul" a z (fun () -> Bigint.mul x y);
            line "div" a z (fun () -> Bigint.div x y);
            line "fdiv" a z (fun () -> Bigint.fdiv x y);
            line "cdiv" a z (fun () -> Bigint.cdiv x y);
            line "gcd" a z (fun () -> Bigint.gcd x y);
            line "lcm" a z (fun () -> Bigint.lcm x y);
            line "equal" a b (fun () -> Bigint.equal x y);
            line "compare" a i (fun () -> Bigint.compare x y))
          zs)
      zs;
    List.iter
      (fun x ->
        let a = [ r x ] in
        line "Q.num" a z (fun () -> Q.num x);
        line "Q.den" a z (fun () -> Q.den x);
        line "Q.sign" a i (fun () -> Q.sign x);
        line "Q.is_zero" a b (fun () -> Q.is_zero x);
        line "Q.is_integer" a b (fun () -> Q.is_integer x);
        line "Q.neg" a r (fun () -> Q.neg x);
        line "Q.abs" a r (fun () -> Q.abs x);
        line "Q.inv" a r (fun () -> Q.inv x);
        line "Q.floor" a z (fun () -> Q.floor x);
        line "Q.ceil" a z (fun () -> Q.ceil x);
        line "Q.to_bigint" a z (fun () -> Q.to_bigint x);
        line "Q.to_string" a Fun.id (fun () -> Q.to_string x);
        List.iter
          (fun y ->
            let a = [ r x; r y ] in
            line "Q.add" a r (fun () -> Q.add x y);
            line "Q.sub" a r (fun () -> Q.sub x y);
            line "Q.mul" a r (fun () -> Q.mul x y);
            line "Q.div" a r (fun () -> Q.div x y);
            line "Q.equal" a b (fun () -> Q.equal x y);
            line "Q.compare" a i (fun () -> Q.compare x y))
          qs)
      qs;
    List.iter
      (fun (x, f, y) ->
        line "Q.sub_mul" [ r x; r f; r y ] r (fun () -> Q.sub_mul x f y))
      triples
  in
  List.iter
    (fun chaos ->
      Printf.bprintf buf "chaos %b\n" chaos;
      Chaos.arm ~big_path:chaos run)
    [ false; true ];
  Buffer.contents buf

let test_arithmetic_transcript () =
  Alcotest.(check string) "transcript MD5" "3a7a037ba7cbfeef6ab510088dd097e8"
    (Digest.to_hex (Digest.string (arithmetic_transcript ())))

(* --- Bigint properties -------------------------------------------------- *)

let med_int = QCheck.int_range (-100000) 100000

let prop_roundtrip =
  QCheck.Test.make ~name:"bigint of_int/to_int roundtrip" ~count:500
    QCheck.int
    (fun n -> Bigint.to_int (bi n) = n)

let prop_add_matches =
  QCheck.Test.make ~name:"bigint add matches native" ~count:500
    QCheck.(pair med_int med_int)
    (fun (a, b) -> Bigint.to_int (Bigint.add (bi a) (bi b)) = a + b)

let prop_mul_matches =
  QCheck.Test.make ~name:"bigint mul matches native" ~count:500
    QCheck.(pair med_int med_int)
    (fun (a, b) -> Bigint.to_int (Bigint.mul (bi a) (bi b)) = a * b)

let prop_divmod_invariant =
  QCheck.Test.make ~name:"bigint divmod invariant (large operands)" ~count:300
    QCheck.(triple med_int med_int med_int)
    (fun (a, b, c) ->
      QCheck.assume (c <> 0);
      (* build operands with several digits *)
      let b27 = big "123456789123456789123456789" in
      let x = Bigint.(add (mul b27 (bi a)) (bi b)) in
      let y = Bigint.(add (mul (bi c) (bi 1000003)) Bigint.one) in
      let r = bsub x (Bigint.mul (Bigint.div x y) y) in
      (Bigint.is_zero r || Bigint.sign r = Bigint.sign x)
      && Bigint.compare (babs r) (babs y) < 0)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300
    QCheck.(pair med_int med_int)
    (fun (a, b) ->
      QCheck.assume (a <> 0 || b <> 0);
      let g = Bigint.gcd (bi a) (bi b) in
      Bigint.(equal (mul (div (bi a) g) g) (bi a) && equal (mul (div (bi b) g) g) (bi b)))

let prop_compare_total_order =
  QCheck.Test.make ~name:"bigint compare matches native" ~count:500
    QCheck.(pair med_int med_int)
    (fun (a, b) -> Bigint.compare (bi a) (bi b) = compare a b)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:300
    QCheck.(pair med_int med_int)
    (fun (a, b) ->
      let x = Bigint.(mul (mul (bi a) (bi b)) (big "1000000000000000000000")) in
      Bigint.equal x (big (Bigint.to_string x)))

(* --- Q tests ------------------------------------------------------------ *)

let test_q_normalization () =
  Alcotest.(check string) "6/4 -> 3/2" "3/2" (Q.to_string (qq 6 4));
  Alcotest.(check string) "neg den" "-3/2" (Q.to_string (qq 3 (-2)));
  Alcotest.(check string) "zero" "0" (Q.to_string (qq 0 17));
  Alcotest.(check bool) "int detect" true (Q.is_integer (qq 8 4))

let test_q_arith () =
  Alcotest.(check bool) "1/2 + 1/3 = 5/6" true Q.(equal (add (qq 1 2) (qq 1 3)) (qq 5 6));
  Alcotest.(check bool) "mul" true Q.(equal (mul (qq 2 3) (qq 3 4)) (qq 1 2));
  Alcotest.(check bool) "div" true Q.(equal (div (qq 1 2) (qq 1 4)) (q 2));
  Alcotest.(check bool) "inv" true Q.(equal (inv (qq 3 7)) (qq 7 3));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_q_floor_ceil () =
  let check name expect v =
    Alcotest.(check int) name expect (Bigint.to_int v)
  in
  check "floor 7/2" 3 (Q.floor (qq 7 2));
  check "floor -7/2" (-4) (Q.floor (qq (-7) 2));
  check "ceil 7/2" 4 (Q.ceil (qq 7 2));
  check "ceil -7/2" (-3) (Q.ceil (qq (-7) 2));
  check "floor int" 5 (Q.floor (q 5));
  check "ceil int" 5 (Q.ceil (q 5))

let nonzero_small = QCheck.int_range 1 1000

let arb_q =
  QCheck.map
    (fun (n, d) -> qq n d)
    QCheck.(pair (int_range (-1000) 1000) nonzero_small)

let prop_q_field =
  QCheck.Test.make ~name:"q field laws" ~count:300
    QCheck.(triple arb_q arb_q arb_q)
    (fun (a, b, c) ->
      Q.(equal (add a b) (add b a))
      && Q.(equal (add (add a b) c) (add a (add b c)))
      && Q.(equal (mul a (add b c)) (add (mul a b) (mul a c)))
      && Q.(equal (sub a a) zero)
      && (Q.is_zero a || Q.(equal (mul a (inv a)) one)))

let prop_q_compare_antisym =
  QCheck.Test.make ~name:"q compare antisymmetric" ~count:300
    QCheck.(pair arb_q arb_q)
    (fun (a, b) -> Q.compare a b = -Q.compare b a)

let prop_q_floor_le =
  QCheck.Test.make ~name:"floor q <= q < floor q + 1" ~count:300 arb_q
    (fun a ->
      let f = Q.of_bigint (Q.floor a) in
      Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0)

(* --- representation invariants -------------------------------------------

   One rational has one representation: a Bigint is immediate exactly
   when it fits a native int, and a Q is immediate exactly when it is an
   integer with a native-range numerator. Then structural equality and
   [Hashtbl.hash] agree with [equal], however a value was reached. Each
   boundary value below is reached by several routes (direct, through
   a sum, a difference, a product, a quotient, a double negation, a
   fused update), with the big-path hook off and on. *)

let rep_values =
  let z = big in
  let p31 = "2147483648" and p62 = "4611686018427387904" in
  List.map
    (fun (n, d) -> (z n, z d))
    ([ "0"; "1"; "-1"; "2"; "-2"; p31; "-" ^ p31; "2147483647"; p62; "-" ^ p62;
       string_of_int max_int; string_of_int min_int; string_of_int (min_int + 1);
       "4611686018427387905"; "-4611686018427387905"; "1267650600228229401496703205376" ]
     |> List.map (fun n -> (n, "1")))
  @ List.map
      (fun (n, d) -> (z n, z d))
      [ ("1", "2"); ("-1", "2"); ("2", "3"); (string_of_int max_int, "2");
        ("1", string_of_int max_int); (string_of_int min_int, "3"); (p62, "3");
        ("1", p62); ("-7", p31); ("1267650600228229401496703205376", "3") ]

(* offsets the routes add and take away again: native, at the native
   edge, and Big *)
let rep_offsets =
  List.map big
    [ "3"; "-5"; "4611686018427387903"; "-4611686018427387904"; "4611686018427387909" ]

let rep_fractions = [ qq 1 3; qq (-5) 7; Q.of_int 4 ]

let bigint_route (n, _) route k =
  match route mod 6 with
  | 0 -> big (Bigint.to_string n)
  | 1 -> Bigint.add (bsub n k) k
  | 2 -> bsub (Bigint.add n k) k
  | 3 -> if Bigint.is_zero k then n else Bigint.div (Bigint.mul n k) k
  | 4 -> Bigint.neg (Bigint.neg n)
  | _ -> bsub (Bigint.add n Bigint.one) Bigint.one

let q_route (n, d) route k f =
  let v = qdiv n d in
  match route mod 9 with
  | 0 -> v
  | 1 -> qdiv (Bigint.mul n k) (Bigint.mul d k)
  | 2 -> Q.sub (Q.add v f) f
  | 3 -> Q.add (Q.sub v f) f
  | 4 -> Q.div (Q.mul v f) f
  | 5 -> Q.neg (Q.neg v)
  | 6 -> Q.sub_mul (Q.add v (Q.mul f f)) f f
  | 7 -> Q.add (Q.sub v (Q.of_bigint k)) (Q.of_bigint k)
  | _ -> if Bigint.is_one d then Q.of_bigint n else Q.inv (Q.inv v)

let arb_rep =
  let open QCheck.Gen in
  let value = int_bound (List.length rep_values - 1) in
  let side = triple (int_bound 8) (int_bound (List.length rep_offsets - 1))
      (int_bound (List.length rep_fractions - 1)) in
  QCheck.make
    ~print:(fun (i, j, _, _) -> Printf.sprintf "values %d, %d" i j)
    (value >>= fun i ->
     quad (return i) (frequency [ (1, value); (1, return i) ]) side side)

let bigint_invariants x =
  Bigint.is_small x = (Bigint.to_int_opt x <> None)
  && Bigint.is_small x = (int_of_string_opt (Bigint.to_string x) <> None)

let q_invariants x =
  Obj.is_int (Obj.repr x)
  = (Q.is_integer x && Bigint.to_int_opt (Q.num x) <> None)
  && bigint_invariants (Q.num x)
  && bigint_invariants (Q.den x)

let rep_invariants ~chaos =
  QCheck.Test.make
    ~name:(Printf.sprintf "one representation per value, chaos %b" chaos)
    ~count:3000 arb_rep
    (fun (i, j, (r1, k1, f1), (r2, k2, f2)) ->
      Chaos.arm ~big_path:chaos (fun () ->
          let vi = List.nth rep_values i and vj = List.nth rep_values j in
          let k1 = List.nth rep_offsets k1 and k2 = List.nth rep_offsets k2 in
          let f1 = List.nth rep_fractions f1 and f2 = List.nth rep_fractions f2 in
          let x = q_route vi r1 k1 f1 and y = q_route vj r2 k2 f2 in
          let a = bigint_route vi r1 k1 and b = bigint_route vj r2 k2 in
          let same_q = Q.equal x y and same_z = Bigint.equal a b in
          q_invariants x && q_invariants y
          && bigint_invariants a && bigint_invariants b
          && (x = y) = same_q
          && (a = b) = same_z
          && same_q = String.equal (Q.to_string x) (Q.to_string y)
          && same_z = String.equal (Bigint.to_string a) (Bigint.to_string b)
          && ((not same_q) || Hashtbl.hash x = Hashtbl.hash y)
          && ((not same_z) || Hashtbl.hash a = Hashtbl.hash b)))

(* --- Vec tests ----------------------------------------------------------- *)

let test_vec_normalize () =
  let v = [| qq 1 2; qq 1 3; Q.zero |] in
  let n = Vec.normalize_int v in
  Alcotest.(check bool) "primitive" true
    (Vec.equal n (Vec.of_ints [| 3; 2; 0 |]));
  let w = Vec.of_ints [| 4; 6; 8 |] in
  Alcotest.(check bool) "gcd divide" true
    (Vec.equal (Vec.normalize_int w) (Vec.of_ints [| 2; 3; 4 |]));
  Alcotest.(check bool) "zero stays" true
    (Vec.is_zero (Vec.normalize_int (Vec.zero 3)))

(* --- Mat tests ----------------------------------------------------------- *)

let dot a b = Array.fold_left Q.add Q.zero (Array.map2 Q.mul a b)
let mat_vec m v = Array.map (fun row -> dot row v) m
let mat_mul a b =
  Array.map
    (fun row ->
      Array.init (Array.length b.(0)) (fun j -> dot row (Array.map (fun r -> r.(j)) b)))
    a
let mat_equal a b = Array.length a = Array.length b && Array.for_all2 Vec.equal a b
let identity n =
  Mat.of_ints (Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0)))

let test_mat_inverse () =
  let a = Mat.of_ints [| [| 2; 1 |]; [| 1; 1 |] |] in
  (match Mat.inverse a with
  | None -> Alcotest.fail "invertible matrix reported singular"
  | Some inv ->
    Alcotest.(check bool) "a * a^-1 = I" true
      (mat_equal (mat_mul a inv) (identity 2)));
  let sing = Mat.of_ints [| [| 1; 2 |]; [| 2; 4 |] |] in
  Alcotest.(check bool) "singular" true (Mat.inverse sing = None)

let test_mat_rank_nullspace () =
  let m = Mat.of_ints [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 1; 0; 1 |] |] in
  Alcotest.(check int) "rank" 2 (Mat.rank m);
  let ns = Mat.orthogonal_complement m in
  Alcotest.(check int) "nullity" 1 (List.length ns);
  List.iter
    (fun v -> Alcotest.(check bool) "m v = 0" true (Vec.is_zero (mat_vec m v)))
    ns

let test_mat_orth_complement () =
  let m = Mat.of_ints [| [| 1; 0; 0 |] |] in
  let comp = Mat.orthogonal_complement m in
  Alcotest.(check int) "complement dim" 2 (List.length comp);
  List.iter
    (fun v ->
      Alcotest.(check bool) "orthogonal" true (Q.is_zero (dot m.(0) v)))
    comp

let arb_small_mat n =
  QCheck.map
    (fun cells ->
      Array.init n (fun i -> Array.init n (fun j -> q cells.((i * n) + j))))
    QCheck.(array_of_size (QCheck.Gen.return (n * n)) (int_range (-5) 5))

let prop_inverse_correct =
  QCheck.Test.make ~name:"mat inverse correct when it exists" ~count:200
    (arb_small_mat 3)
    (fun m ->
      match Mat.inverse m with
      | None -> Mat.rank m < 3
      | Some i -> mat_equal (mat_mul m i) (identity 3))

let prop_nullspace_in_kernel =
  QCheck.Test.make ~name:"nullspace vectors are in the kernel" ~count:200
    (arb_small_mat 3)
    (fun m ->
      List.for_all (fun v -> Vec.is_zero (mat_vec m v)) (Mat.orthogonal_complement m))

let prop_rank_nullity =
  QCheck.Test.make ~name:"rank + nullity = cols" ~count:200 (arb_small_mat 3)
    (fun m -> Mat.rank m + List.length (Mat.orthogonal_complement m) = 3)

(* --- Counters -------------------------------------------------------------- *)

(* [Counters.scoped] runs its callback on a fresh record and hands the
   caller's record back on return and on exception *)
let test_counters_scoped () =
  Counters.reset ();
  Counters.(incr lp_solves);
  let outer = Counters.all_counters () in
  let check_outer what =
    Alcotest.(check bool) (what ^ ": outer record restored") true
      (Counters.all_counters () = outer)
  in
  let inner =
    Counters.scoped (fun () ->
        Alcotest.(check int) "a scope starts at zero" 0 Counters.(get lp_solves);
        Counters.(incr lp_pivots);
        Counters.all_counters ())
  in
  Alcotest.(check int) "the scope counted its own work" 1
    (List.assoc "lp_pivots" inner);
  check_outer "return";
  (match
     Counters.scoped (fun () ->
         Counters.(set lp_solves 999_983);
         Counters.time "faulted" (fun () -> failwith "fault"))
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "the scope swallowed the exception");
  check_outer "exception";
  Counters.reset ()

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "linalg"
    [ ( "bigint",
        [ Alcotest.test_case "basics" `Quick test_bigint_basics;
          Alcotest.test_case "strings" `Quick test_bigint_string;
          Alcotest.test_case "large arithmetic" `Quick test_bigint_arith_large;
          Alcotest.test_case "divmod signs" `Quick test_bigint_divmod_signs;
          Alcotest.test_case "fdiv/cdiv" `Quick test_bigint_fdiv_cdiv;
          Alcotest.test_case "gcd/lcm" `Quick test_bigint_gcd;
          Alcotest.test_case "div by zero" `Quick test_bigint_div_by_zero;
          Alcotest.test_case "knuth stress" `Quick test_bigint_knuth_stress;
          Alcotest.test_case "boundary roundtrip" `Quick
            test_bigint_boundary_roundtrip;
          Alcotest.test_case "boundary promotion" `Quick
            test_bigint_boundary_promotion ] );
      ( "bigint-props",
        qt
          [ prop_roundtrip; prop_add_matches; prop_mul_matches;
            prop_divmod_invariant; prop_gcd_divides; prop_compare_total_order;
            prop_string_roundtrip ] );
      ( "bigint-differential",
        qt
          [ diff_add; diff_sub; diff_mul; diff_divmod; diff_gcd; diff_compare ] );
      ( "q-differential",
        Alcotest.test_case "arithmetic transcript" `Quick
          test_arithmetic_transcript
        :: qt [ diff_sub_mul ~chaos:false; diff_sub_mul ~chaos:true ] );
      ( "q",
        [ Alcotest.test_case "normalization" `Quick test_q_normalization;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "floor/ceil" `Quick test_q_floor_ceil ] );
      ("q-props", qt [ prop_q_field; prop_q_compare_antisym; prop_q_floor_le ]);
      ("representation", qt [ rep_invariants ~chaos:false; rep_invariants ~chaos:true ]);
      ( "vec",
        [ Alcotest.test_case "normalize_int" `Quick test_vec_normalize ] );
      ( "mat",
        [ Alcotest.test_case "inverse" `Quick test_mat_inverse;
          Alcotest.test_case "rank/nullspace" `Quick test_mat_rank_nullspace;
          Alcotest.test_case "orth complement" `Quick test_mat_orth_complement ] );
      ( "mat-props",
        qt [ prop_inverse_correct; prop_nullspace_in_kernel; prop_rank_nullity ] );
      ("counters", [ Alcotest.test_case "scoped restores" `Quick test_counters_scoped ]) ]
