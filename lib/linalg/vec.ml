type t = Q.t array

let make n q = Array.make n q
let zero n = make n Q.zero

let of_ints a = Array.map Q.of_int a
let of_int_list l = of_ints (Array.of_list l)
let copy = Array.copy
let dim = Array.length

let map2 f a b =
  if dim a <> dim b then invalid_arg "Vec: dimension mismatch";
  Array.init (dim a) (fun i -> f a.(i) b.(i))

let add = map2 Q.add
let sub = map2 Q.sub
let neg = Array.map Q.neg
let scale q = Array.map (Q.mul q)

let is_zero v = Array.for_all Q.is_zero v
let equal a b = dim a = dim b && Array.for_all2 Q.equal a b

(* A row of integers that all fit a native int is normalized on native
   ints: one gcd pass, then one division into a fresh array. Normalizing
   multiplies nothing, and [min_int], whose absolute value overflows,
   takes the generic path, so nothing can overflow. On such a row the
   generic path stays native too (it scales by an lcm of 1 and divides
   by the same gcd), so both give the same vector and neither touches a
   Counter. Under the big-path test hook [Bigint.unbox] answers
   [min_int], so every row takes the generic path. *)

(* an integer entry as a native int, or [min_int] *)
let native q = if Q.is_integer q then Bigint.unbox (Q.num q) else Stdlib.min_int

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let normalize_generic v =
  if is_zero v then copy v
  else begin
    (* multiply by the lcm of denominators, then divide by the gcd *)
    let l = Array.fold_left (fun acc q -> Bigint.lcm acc (Q.den q)) Bigint.one v in
    let ints = Array.map (fun q -> Q.to_bigint (Q.mul q (Q.of_bigint l))) v in
    let g = Array.fold_left (fun acc n -> Bigint.gcd acc n) Bigint.zero ints in
    Array.map (fun n -> Q.of_bigint (Bigint.div n g)) ints
  end

let normalize_int v =
  let n = dim v in
  (* the entries' gcd, or -1 at the first entry that is not native *)
  let rec scan i g =
    if i = n then g
    else begin
      let x = native v.(i) in
      if x = Stdlib.min_int then -1 else scan (i + 1) (if g = 1 then 1 else gcd (abs x) g)
    end
  in
  match scan 0 0 with
  | -1 -> normalize_generic v
  | g ->
    let r = copy v in
    if g > 1 then
      for i = 0 to n - 1 do
        r.(i) <- Q.of_int (native r.(i) / g)
      done;
    r
