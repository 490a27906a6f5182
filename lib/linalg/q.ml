(* Canonical rationals: den > 0, gcd (num, den) = 1, zero = 0/1.

   The arithmetic below leans on canonicality to keep intermediates
   small (Knuth 4.5.1): multiplication cross-reduces before
   multiplying, addition folds out gcd (den1, den2), and the inverse
   needs no gcd at all. Combined with Bigint's immediate small-int
   representation this keeps the simplex hot path on native ints. *)

type t = { num : Bigint.t; den : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero
  else if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    if Bigint.is_one g then { num; den }
    else { num = Bigint.div num g; den = Bigint.div den g }
  end

let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let num q = q.num
let den q = q.den

let sign q = Bigint.sign q.num
let is_zero q = Bigint.is_zero q.num
let is_integer q = Bigint.is_one q.den

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den

let compare a b =
  (* cheap discriminations first: sign, then shared denominators *)
  let sa = Bigint.sign a.num and sb = Bigint.sign b.num in
  if sa <> sb then Stdlib.compare sa sb
  else if Bigint.equal a.den b.den then Bigint.compare a.num b.num
  else
    (* a.num/a.den ? b.num/b.den <=> a.num*b.den ? b.num*a.den (dens > 0) *)
    Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let neg q = if is_zero q then q else { q with num = Bigint.neg q.num }
let abs q = if Bigint.sign q.num < 0 then { q with num = Bigint.neg q.num } else q

(* shared addition core; [bnum] is the (possibly negated) numerator of b *)
let add_core a bnum bden =
  if Bigint.is_one a.den && Bigint.is_one bden then
    { num = Bigint.add a.num bnum; den = Bigint.one }
  else begin
    (* Knuth 4.5.1: with g = gcd (d1, d2), the candidate numerator
       t = n1*(d2/g) + n2*(d1/g) over d1*(d2/g) only needs reducing by
       gcd (t, g) — much smaller gcds than reducing the naive cross
       product, and no reduction at all in the common coprime case. *)
    let g = Bigint.gcd a.den bden in
    if Bigint.is_one g then
      { num = Bigint.add (Bigint.mul a.num bden) (Bigint.mul bnum a.den);
        den = Bigint.mul a.den bden }
    else begin
      let d2' = Bigint.div bden g in
      let t =
        Bigint.add (Bigint.mul a.num d2') (Bigint.mul bnum (Bigint.div a.den g))
      in
      if Bigint.is_zero t then { num = Bigint.zero; den = Bigint.one }
      else begin
        let g2 = Bigint.gcd t g in
        if Bigint.is_one g2 then { num = t; den = Bigint.mul a.den d2' }
        else
          { num = Bigint.div t g2;
            den = Bigint.mul (Bigint.div a.den g2) d2' }
      end
    end
  end

let add a b =
  if Bigint.is_zero a.num then b
  else if Bigint.is_zero b.num then a
  else add_core a b.num b.den

let sub a b =
  if Bigint.is_zero b.num then a
  else if Bigint.is_zero a.num then neg b
  else add_core a (Bigint.neg b.num) b.den

let mul a b =
  if Bigint.is_zero a.num || Bigint.is_zero b.num then zero
  else if Bigint.is_one a.den && Bigint.is_one b.den then
    { num = Bigint.mul a.num b.num; den = Bigint.one }
  else begin
    (* cross-reduce: gcd (n1, d2) and gcd (n2, d1) strip all common
       factors up front, so the products below are already canonical *)
    let g1 = Bigint.gcd a.num b.den and g2 = Bigint.gcd b.num a.den in
    let n1 = if Bigint.is_one g1 then a.num else Bigint.div a.num g1 in
    let d2 = if Bigint.is_one g1 then b.den else Bigint.div b.den g1 in
    let n2 = if Bigint.is_one g2 then b.num else Bigint.div b.num g2 in
    let d1 = if Bigint.is_one g2 then a.den else Bigint.div a.den g2 in
    { num = Bigint.mul n1 n2; den = Bigint.mul d1 d2 }
  end

(* --- fused a - f*b on native ints -------------------------------------

   [sub_mul a f b] is [sub a (mul f b)], the update of every simplex
   elimination. On native operands it walks exactly the intermediates of
   those two calls — the cross-reduced product, then the Knuth 4.5.1
   difference — with overflow-checked native arithmetic, and allocates
   only the result. It finishes natively only when no intermediate leaves
   the native range, which is exactly when the generic calls would
   neither promote nor demote, so values and Counters agree with them.
   A Big operand, [min_int], chaos or an overflow takes the generic
   path. [min_int] doubles as the helpers' "left the native range" mark:
   its negation already promotes, so giving it up loses nothing. *)

let off = Stdlib.min_int

(* |x|, |y| < 2^31: the product cannot overflow (Bigint's fast case) *)
let fits31 x = -0x8000_0000 < x && x < 0x8000_0000

let nat_mul x y =
  if x = off || y = off then off
  else if fits31 x && fits31 y then x * y
  else if x = 0 || y = 0 then 0
  else begin
    let p = x * y in
    if p / y = x then p else off
  end

let nat_add x y =
  if x = off || y = off then off
  else begin
    let s = x + y in
    if (x lxor s) land (y lxor s) < 0 then off else s
  end

let rec nat_gcd a b = if b = 0 then a else nat_gcd b (a mod b)
let gcd_abs x y = nat_gcd (Stdlib.abs x) (Stdlib.abs y)

(* never a value: the native path's "fall back" answer *)
let off_q = { num = Bigint.zero; den = Bigint.zero }

let of_nat n d =
  if n = off || d = off then off_q
  else { num = Bigint.of_int n; den = (if d = 1 then Bigint.one else Bigint.of_int d) }

let sub_mul_native a f b =
  let an = Bigint.unbox a.num and ad = Bigint.unbox a.den in
  let fn = Bigint.unbox f.num and fd = Bigint.unbox f.den in
  let bn = Bigint.unbox b.num and bd = Bigint.unbox b.den in
  if an = off || ad = off || fn = off || fd = off || bn = off || bd = off then off_q
  else if fn = 0 || bn = 0 then a
  else begin
    (* c = f * b as [mul]: integers multiply directly, fractions
       cross-reduce first (division by 1 is the identity) *)
    let integral = fd = 1 && bd = 1 in
    let g1 = if integral then 1 else gcd_abs fn bd in
    let g2 = if integral then 1 else gcd_abs bn fd in
    let cn = nat_mul (fn / g1) (bn / g2) and cd = nat_mul (fd / g2) (bd / g1) in
    if cn = off || cd = off then off_q
    else if an = 0 then of_nat (-cn) cd
    else if ad = 1 && cd = 1 then of_nat (nat_add an (-cn)) 1
    else begin
      (* [add_core a (-cn) cd] *)
      let g = nat_gcd ad cd in
      if g = 1 then of_nat (nat_add (nat_mul an cd) (nat_mul (-cn) ad)) (nat_mul ad cd)
      else begin
        let d2' = cd / g in
        let t = nat_add (nat_mul an d2') (nat_mul (-cn) (ad / g)) in
        if t = off then off_q
        else if t = 0 then zero
        else begin
          let g2 = gcd_abs t g in
          if g2 = 1 then of_nat t (nat_mul ad d2')
          else of_nat (t / g2) (nat_mul (ad / g2) d2')
        end
      end
    end
  end

let sub_mul a f b =
  let r = sub_mul_native a f b in
  if r == off_q then sub a (mul f b) else r

(* canonical input means no gcd is needed: just swap and fix the sign *)
let inv q =
  let s = Bigint.sign q.num in
  if s = 0 then raise Division_by_zero
  else if s > 0 then { num = q.den; den = q.num }
  else { num = Bigint.neg q.den; den = Bigint.neg q.num }

let div a b =
  if Bigint.is_zero b.num then raise Division_by_zero
  else if Bigint.is_zero a.num then zero
  else mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor q = Bigint.fdiv q.num q.den
let ceil q = Bigint.cdiv q.num q.den

let to_bigint q =
  if is_integer q then q.num else failwith "Q.to_bigint: not an integer"

let to_float q = Bigint.to_float q.num /. Bigint.to_float q.den

let to_string q =
  if is_integer q then Bigint.to_string q.num
  else Bigint.to_string q.num ^ "/" ^ Bigint.to_string q.den

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

let pp fmt q = Format.pp_print_string fmt (to_string q)
