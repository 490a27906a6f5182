(* Canonical rationals: den > 0, gcd (num, den) = 1, zero = 0/1.

   An integer whose numerator fits a native int is that int, an
   immediate; every other value (a fraction, or an integer beyond the
   native range) is a pointer to a [frac] record of two Bigints. So an
   integral tableau entry, constraint coefficient or schedule
   coefficient allocates nothing, and a fraction allocates its record
   alone, since Bigint carries native-range numerators and
   denominators unboxed.

   Every operation reads the numerator and denominator through
   [num]/[den] (free for an immediate) and rebuilds its result with
   [mk], so on two immediates the arithmetic is Bigint's native path
   and allocates nothing.

   The arithmetic below leans on canonicality to keep intermediates
   small (Knuth 4.5.1): multiplication cross-reduces before
   multiplying, addition folds out gcd (den1, den2), and the inverse
   needs no gcd at all. *)

type frac = { num : Bigint.t; den : Bigint.t }

(* A [t] is an immediate native int or a pointer to a [frac]; these
   five helpers are the only code that tells the two apart. Invariant:
   a [frac] never holds an integer with a native-range numerator ([mk]
   builds every value), so each rational has exactly one
   representation, and structural equality and [Hashtbl.hash] agree
   with [equal]. Immediates are equal exactly when they are physically
   equal. *)
type t

let is_imm (q : t) = Obj.is_int (Obj.repr q)
let of_int (n : int) : t = Obj.magic n
let imm (q : t) : int = Obj.magic q (* only when [is_imm q] *)
let boxed (f : frac) : t = Obj.magic f
let frac (q : t) : frac = Obj.magic q (* only when [not (is_imm q)] *)

(* canonical [num/den] from a canonical pair (den > 0, coprime) *)
let mk num den =
  if Bigint.is_one den && Bigint.is_small num then of_int (Bigint.to_int num)
  else boxed { num; den }

let num q = if is_imm q then Bigint.of_int (imm q) else (frac q).num
let den q = if is_imm q then Bigint.one else (frac q).den

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let is_zero q = q == zero

let make num den =
  if Bigint.is_zero den then raise Division_by_zero
  else if Bigint.is_zero num then zero
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    if Bigint.is_one g then mk num den
    else mk (Bigint.div num g) (Bigint.div den g)
  end

let of_bigint n = mk n Bigint.one
let of_ints n d = make (Bigint.of_int n) (Bigint.of_int d)

let sign q = if is_imm q then Stdlib.compare (imm q) 0 else Bigint.sign (frac q).num
let is_integer q = is_imm q || Bigint.is_one (frac q).den

let equal a b =
  if is_imm a || is_imm b then a == b
  else begin
    let a = frac a and b = frac b in
    Bigint.equal a.num b.num && Bigint.equal a.den b.den
  end

let compare a b =
  if is_imm a && is_imm b then Stdlib.compare (imm a) (imm b)
  else begin
    (* cheap discriminations first: sign, then shared denominators *)
    let sa = sign a and sb = sign b in
    if sa <> sb then Stdlib.compare sa sb
    else if Bigint.equal (den a) (den b) then Bigint.compare (num a) (num b)
    else
      (* a.num/a.den ? b.num/b.den <=> a.num*b.den ? b.num*a.den (dens > 0) *)
      Bigint.compare (Bigint.mul (num a) (den b)) (Bigint.mul (num b) (den a))
  end

let neg q =
  if is_zero q then q
  else mk (Bigint.neg (num q)) (den q)

let abs q = if sign q < 0 then neg q else q

(* shared addition core; [bnum] is the (possibly negated) numerator of b *)
let add_core a bnum bden =
  let anum = num a and aden = den a in
  if Bigint.is_one aden && Bigint.is_one bden then mk (Bigint.add anum bnum) Bigint.one
  else begin
    (* Knuth 4.5.1: with g = gcd (d1, d2), the candidate numerator
       t = n1*(d2/g) + n2*(d1/g) over d1*(d2/g) only needs reducing by
       gcd (t, g) — much smaller gcds than reducing the naive cross
       product, and no reduction at all in the common coprime case. *)
    let g = Bigint.gcd aden bden in
    if Bigint.is_one g then
      mk (Bigint.add (Bigint.mul anum bden) (Bigint.mul bnum aden)) (Bigint.mul aden bden)
    else begin
      let d2' = Bigint.div bden g in
      let t = Bigint.add (Bigint.mul anum d2') (Bigint.mul bnum (Bigint.div aden g)) in
      if Bigint.is_zero t then zero
      else begin
        let g2 = Bigint.gcd t g in
        if Bigint.is_one g2 then mk t (Bigint.mul aden d2')
        else mk (Bigint.div t g2) (Bigint.mul (Bigint.div aden g2) d2')
      end
    end
  end

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else add_core a (num b) (den b)

let sub a b =
  if is_zero b then a
  else if is_zero a then neg b
  else add_core a (Bigint.neg (num b)) (den b)

let mul a b =
  if is_zero a || is_zero b then zero
  else if is_integer a && is_integer b then mk (Bigint.mul (num a) (num b)) Bigint.one
  else begin
    (* cross-reduce: gcd (n1, d2) and gcd (n2, d1) strip all common
       factors up front, so the products below are already canonical *)
    let an = num a and ad = den a and bn = num b and bd = den b in
    let g1 = Bigint.gcd an bd and g2 = Bigint.gcd bn ad in
    let n1 = if Bigint.is_one g1 then an else Bigint.div an g1 in
    let d2 = if Bigint.is_one g1 then bd else Bigint.div bd g1 in
    let n2 = if Bigint.is_one g2 then bn else Bigint.div bn g2 in
    let d1 = if Bigint.is_one g2 then ad else Bigint.div ad g2 in
    mk (Bigint.mul n1 n2) (Bigint.mul d1 d2)
  end

(* --- fused a - f*b on native ints -------------------------------------

   [sub_mul a f b] is [sub a (mul f b)], the update of every simplex
   elimination. On native operands it walks exactly the intermediates of
   those two calls — the cross-reduced product, then the Knuth 4.5.1
   difference — with overflow-checked native arithmetic, and allocates
   at most the result. It finishes natively only when no intermediate leaves
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
let off_q = boxed { num = Bigint.zero; den = Bigint.zero }

let of_nat n d =
  if n = off || d = off then off_q
  else if d = 1 then of_int n
  else boxed { num = Bigint.of_int n; den = Bigint.of_int d }

let sub_mul_native a f b =
  let an = Bigint.unbox (num a) and ad = Bigint.unbox (den a) in
  let fn = Bigint.unbox (num f) and fd = Bigint.unbox (den f) in
  let bn = Bigint.unbox (num b) and bd = Bigint.unbox (den b) in
  if an = off || ad = off || fn = off || fd = off || bn = off || bd = off then off_q
  else if fn = 0 || bn = 0 then a
  else begin
    (* c = f * b as [mul]: integers multiply directly, fractions
       cross-reduce first *)
    let cn, cd =
      if fd = 1 && bd = 1 then (nat_mul fn bn, 1)
      else
        let g1 = gcd_abs fn bd and g2 = gcd_abs bn fd in
        (nat_mul (fn / g1) (bn / g2), nat_mul (fd / g2) (bd / g1))
    in
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
  let s = sign q in
  if s = 0 then raise Division_by_zero
  else if s > 0 then mk (den q) (num q)
  else mk (Bigint.neg (den q)) (Bigint.neg (num q))

let div a b =
  if is_zero b then raise Division_by_zero
  else if is_zero a then zero
  else mul a (inv b)

let floor q = Bigint.fdiv (num q) (den q)
let ceil q = Bigint.cdiv (num q) (den q)

let to_bigint q =
  if is_integer q then num q else failwith "Q.to_bigint: not an integer"

let to_string q =
  if is_integer q then Bigint.to_string (num q)
  else Bigint.to_string (num q) ^ "/" ^ Bigint.to_string (den q)

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
