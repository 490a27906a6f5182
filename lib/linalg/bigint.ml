(* Arbitrary-precision signed integers, immediate when they fit.

   A value that fits a native OCaml int (63 bits) is that int: an
   immediate, with nothing allocated. Any other value is a pointer to a
   [big], a sign + magnitude bignum in base 2^30 (little-endian int
   array, no zero digit at the top, division by Knuth's Algorithm D,
   TAOCP 4.3.1). This is Zarith's layout without GMP underneath.

   Native operands take overflow-checked native +, -, *, / and gcd;
   an overflow promotes both operands to [big] and finishes there, and
   every result that fits a native int demotes back. Those boundary
   crossings are what {!Counters.promotions}/{!Counters.demotions}
   count, and they cover a vanishing share of polyhedral-pipeline
   arithmetic.

   All digit-level products fit a native int: 2^30 * 2^30 = 2^60 < 2^62. *)

let base_bits = 30
let base = 1 lsl base_bits (* 2^30 *)
let digit_mask = base - 1

type big = { sign : int; mag : int array }
(* invariants: sign = 0 iff mag = [||]; otherwise sign is 1 or -1 and the
   highest digit of mag is non-zero; every digit is in [0, base). *)

(* A [t] is an immediate native int or a pointer to a [big]; these five
   helpers are the only code that tells the two apart. Invariant: a
   [big] never holds a value that fits a native int (every constructor
   below demotes, [force_big] aside), so each value has exactly one
   representation, and structural equality and [Hashtbl.hash] agree
   with [equal]. Immediates are equal exactly when they are physically
   equal, which [is_zero], [is_one] and [mul] use. *)
type t

let is_small (x : t) = Obj.is_int (Obj.repr x)
let of_int (n : int) : t = Obj.magic n
let small (x : t) : int = Obj.magic x (* only when [is_small x] *)
let boxed (b : big) : t = Obj.magic b
let big (x : t) : big = Obj.magic x (* only when [not (is_small x)] *)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let is_zero x = x == zero
let is_one x = x == one

(* Chaos hook (fault injection for the test suite): when set, the
   native fast paths of add/sub/mul/divmod/gcd are disabled and every
   operation runs the [big] (promotion) route. Results are still
   canonical — [of_big] demotes them — so values, comparisons and
   hashes are unchanged; only the computation path differs. *)
let chaos_big_path = ref false

let mag_norm (m : int array) : int array =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do decr n done;
  if !n = Array.length m then m else Array.sub m 0 !n

(* value of a magnitude as a non-negative native int, if < 2^62 *)
let mag_to_int_opt (m : int array) =
  match Array.length m with
  | 0 -> Some 0
  | 1 -> Some m.(0)
  | 2 -> Some ((m.(1) lsl base_bits) lor m.(0))
  | 3 when m.(2) < 4 ->
    Some ((m.(2) lsl (2 * base_bits)) lor (m.(1) lsl base_bits) lor m.(0))
  | _ -> None

(* magnitude of min_int (2^62) — the one value whose magnitude does not
   fit a non-negative native int yet whose negation is native *)
let is_min_int_mag (m : int array) =
  Array.length m = 3 && m.(2) = 4 && m.(1) = 0 && m.(0) = 0

(* canonicalizing constructor: normalize the magnitude and demote to an
   immediate whenever the value fits a native int *)
let of_big sign (mag : int array) =
  let mag = mag_norm mag in
  if Array.length mag = 0 then zero
  else begin
    match mag_to_int_opt mag with
    | Some v ->
      Counters.(incr demotions);
      of_int (if sign < 0 then -v else v)
    | None ->
      if sign < 0 && is_min_int_mag mag then begin
        Counters.(incr demotions);
        of_int Stdlib.min_int
      end
      else boxed { sign; mag }
  end

(* a native int as a [big] magnitude (callers record the promotion:
   they reach this only when a fast path overflowed or an operand was
   already big) *)
let big_of_small n : big =
  if n = 0 then { sign = 0; mag = [||] }
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int's absolute value overflows; peel digits off using mod that
       works on negative numbers instead. *)
    let rec digits n acc =
      if n = 0 then List.rev acc
      else digits (n / base) (abs (n mod base) :: acc)
    in
    { sign; mag = Array.of_list (digits n []) }
  end

let to_big x =
  if is_small x then begin
    Counters.(incr promotions);
    big_of_small (small x)
  end
  else big x

let sign x = if is_small x then Stdlib.compare (small x) 0 else (big x).sign

let mag_cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

(* canonicality makes the mixed cases trivial: a big is always outside
   the native range, so its sign decides *)
let compare x y =
  match (is_small x, is_small y) with
  | true, true -> Stdlib.compare (small x) (small y)
  | false, false ->
    let a = big x and b = big y in
    if a.sign <> b.sign then Stdlib.compare a.sign b.sign
    else a.sign * mag_cmp a.mag b.mag
  | true, false -> -(big y).sign
  | false, true -> (big x).sign

let equal x y =
  match (is_small x, is_small y) with
  | true, true -> x == y
  | false, false ->
    let a = big x and b = big y in
    a.sign = b.sign && mag_cmp a.mag b.mag = 0
  | true, false | false, true -> false

(* --- magnitude arithmetic ------------------------------------------- *)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s =
      !carry
      + (if i < la then a.(i) else 0)
      + (if i < lb then b.(i) else 0)
    in
    r.(i) <- s land digit_mask;
    carry := s lsr base_bits
  done;
  mag_norm r

(* requires a >= b *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_norm r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land digit_mask;
          carry := t lsr base_bits
        done;
        (* propagate the final carry *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land digit_mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    mag_norm r
  end

(* shift a magnitude left by [bits] (< base_bits) bits *)
let mag_shl a bits =
  if bits = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) lsl bits) lor !carry in
      r.(i) <- t land digit_mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    mag_norm r
  end

(* shift right by [bits] (< base_bits) bits *)
let mag_shr a bits =
  if bits = 0 then Array.copy a
  else begin
    let la = Array.length a in
    let r = Array.make la 0 in
    for i = 0 to la - 1 do
      let lo = a.(i) lsr bits in
      let hi = if i + 1 < la then (a.(i + 1) lsl (base_bits - bits)) land digit_mask else 0 in
      r.(i) <- lo lor hi
    done;
    mag_norm r
  end

(* divide magnitude by a single digit; returns (quotient, remainder digit) *)
let mag_divmod_digit a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_norm q, !r)

(* Knuth Algorithm D. Requires |b| >= 2 digits and a >= b. *)
let mag_divmod_knuth a b =
  let n = Array.length b in
  (* normalize so the top digit of v is >= base/2 *)
  let shift =
    let top = b.(n - 1) in
    let s = ref 0 in
    let t = ref top in
    while !t < base / 2 do t := !t lsl 1; incr s done;
    !s
  in
  let u0 = mag_shl a shift in
  let v = mag_shl b shift in
  assert (Array.length v = n);
  (* u gets one extra (possibly zero) top digit *)
  let m = Array.length u0 - n in
  let u = Array.make (Array.length u0 + 1) 0 in
  Array.blit u0 0 u 0 (Array.length u0);
  let q = Array.make (m + 1) 0 in
  let vn1 = v.(n - 1) and vn2 = v.(n - 2) in
  for j = m downto 0 do
    (* estimate q-hat from the top two digits of the running remainder *)
    let top2 = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top2 / vn1) and rhat = ref (top2 mod vn1) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base || !qhat * vn2 > ((!rhat lsl base_bits) lor u.(j + n - 2))
      then begin
        decr qhat;
        rhat := !rhat + vn1;
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* multiply and subtract: u[j .. j+n] -= qhat * v *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land digit_mask) - !borrow in
      if d < 0 then begin u.(i + j) <- d + base; borrow := 1 end
      else begin u.(i + j) <- d; borrow := 0 end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* q-hat was one too large: add v back *)
      u.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !c in
        u.(i + j) <- s land digit_mask;
        c := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land digit_mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = mag_shr (mag_norm (Array.sub u 0 n)) shift in
  (mag_norm q, r)

let mag_divmod a b =
  match Array.length b with
  | 0 -> raise Division_by_zero
  | _ when mag_cmp a b < 0 -> ([||], Array.copy a)
  | 1 ->
    let q, r = mag_divmod_digit a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  | _ -> mag_divmod_knuth a b

(* --- signed operations ---------------------------------------------- *)

let neg x =
  if is_small x then begin
    let n = small x in
    if n = Stdlib.min_int then begin
      (* |min_int| = 2^62 does not fit a native int: promote *)
      Counters.(incr promotions);
      boxed { sign = 1; mag = (big_of_small n).mag }
    end
    else of_int (-n)
  end
  else begin
    let b = big x in
    of_big (-b.sign) b.mag (* -2^62 demotes back to min_int *)
  end

let abs x = if sign x < 0 then neg x else x

(* big-path add; both operands in big form, result canonicalized *)
let big_add (x : big) (y : big) =
  if x.sign = 0 then of_big y.sign y.mag
  else if y.sign = 0 then of_big x.sign x.mag
  else if x.sign = y.sign then of_big x.sign (mag_add x.mag y.mag)
  else begin
    let c = mag_cmp x.mag y.mag in
    if c = 0 then zero
    else if c > 0 then of_big x.sign (mag_sub x.mag y.mag)
    else of_big y.sign (mag_sub y.mag x.mag)
  end

let add x y =
  if is_zero x then y
  else if is_zero y then x
  else if is_small x && is_small y && not !chaos_big_path then begin
    let a = small x and b = small y in
    let s = a + b in
    (* two's-complement overflow: operands agree in sign, sum does not *)
    if (a lxor s) land (b lxor s) < 0 then big_add (to_big x) (to_big y)
    else of_int s
  end
  else big_add (to_big x) (to_big y)

let sub x y =
  if is_small x && is_small y && not !chaos_big_path then begin
    let a = small x and b = small y in
    let s = a - b in
    (* overflow: operands differ in sign and the result left a's sign *)
    if (a lxor b) land (a lxor s) < 0 then big_add (to_big x) (to_big (neg y))
    else of_int s
  end
  else add x (neg y)

let succ x = add x one
let pred x = sub x one

(* |a|, |b| <= 2^31 - 1 guarantees the native product fits (< 2^62) *)
let small_mul_fits a = -0x8000_0000 < a && a < 0x8000_0000

let big_mul (x : big) (y : big) =
  if x.sign = 0 || y.sign = 0 then zero
  else of_big (x.sign * y.sign) (mag_mul x.mag y.mag)

let mul x y =
  if is_zero x || is_zero y then zero
  else if is_one x then y
  else if is_one y then x
  else if x == minus_one then neg y
  else if y == minus_one then neg x
  else if is_small x && is_small y && not !chaos_big_path then begin
    let a = small x and b = small y in
    if small_mul_fits a && small_mul_fits b then of_int (a * b)
    else begin
      (* checked multiply: with |b| >= 2 the division below cannot trap
         and detects wrap-around exactly *)
      let p = a * b in
      if p / b = a then of_int p else big_mul (to_big x) (to_big y)
    end
  end
  else big_mul (to_big x) (to_big y)

let big_divmod (a : big) (b : big) =
  if b.sign = 0 then raise Division_by_zero
  else if a.sign = 0 then (zero, zero)
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    (of_big (a.sign * b.sign) qm, of_big a.sign rm)
  end

let divmod a b =
  if is_zero b then raise Division_by_zero
  else if is_small a && is_small b && not !chaos_big_path then begin
    let x = small a and y = small b in
    if y = -1 then (neg a, zero) (* min_int / -1 would trap *)
    else (of_int (x / y), of_int (x mod y))
  end
  else if b == minus_one && not (is_small a) then (neg a, zero)
  else big_divmod (to_big a) (to_big b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let fdiv a b =
  let q, r = divmod a b in
  if (not (is_zero r)) && sign r <> sign b then sub q one else q

let cdiv a b =
  let q, r = divmod a b in
  if (not (is_zero r)) && sign r = sign b then add q one else q

(* native Euclid on non-negative ints *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* gcd over magnitudes; finishes with native Euclid once the remainder
   fits an int *)
let rec big_gcd (a : big) (b : big) =
  if b.sign = 0 then of_big 1 a.mag
  else begin
    let _, r = mag_divmod a.mag b.mag in
    match mag_to_int_opt b.mag with
    | Some bv ->
      (match mag_to_int_opt r with
      | Some rv -> of_int (gcd_int bv rv)
      | None -> assert false (* |r| < |b| fits a native int *))
    | None ->
      big_gcd { sign = 1; mag = b.mag }
        { sign = (if Array.length r = 0 then 0 else 1); mag = r }
  end

let gcd a b =
  if is_small a && is_small b && not !chaos_big_path then begin
    let x = small a and y = small b in
    if x = Stdlib.min_int || y = Stdlib.min_int then
      big_gcd (to_big (abs a)) (to_big (abs b))
    else of_int (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  end
  else big_gcd (to_big (abs a)) (to_big (abs b))

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (div (mul a b) (gcd a b))

let pow x n =
  if Stdlib.(n < 0) then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else go (if n land 1 = 1 then mul acc b else acc) (mul b b) (n lsr 1)
  in
  go one x n

(* --- conversions ----------------------------------------------------- *)

(* canonicality: a big never fits a native int *)
let fits_int = is_small

let to_int_opt x = if is_small x then Some (small x) else None

let to_int x =
  if is_small x then small x else failwith "Bigint.to_int: does not fit"

let to_string x =
  if is_small x then string_of_int (small x)
  else begin
    let b = big x in
    let buf = Buffer.create 16 in
    let rec chunks m acc =
      if Array.length m = 0 then acc
      else begin
        let q, r = mag_divmod_digit m 1000000000 in
        chunks q (r :: acc)
      end
    in
    (match chunks b.mag [] with
    | [] -> "0"
    | first :: rest ->
      if Stdlib.(b.sign < 0) then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf)
  end

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if Stdlib.(c < '0' || c > '9') then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if sign = -1 then neg !acc else !acc

(* --- representation introspection (tests and diagnostics) ------------ *)

let force_big x = if is_small x then boxed (to_big x) else x

(* --- native access for fused kernels ----------------------------------- *)

let unbox x = if is_small x && not !chaos_big_path then small x else Stdlib.min_int

(* --- operators & printing ------------------------------------------- *)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0

let pp fmt x = Format.pp_print_string fmt (to_string x)
