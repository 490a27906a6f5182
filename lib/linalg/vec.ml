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

let normalize_int v =
  if is_zero v then v
  else begin
    (* multiply by the lcm of denominators, then divide by the gcd *)
    let l = Array.fold_left (fun acc q -> Bigint.lcm acc (Q.den q)) Bigint.one v in
    let ints = Array.map (fun q -> Q.to_bigint (Q.mul q (Q.of_bigint l))) v in
    let g = Array.fold_left (fun acc n -> Bigint.gcd acc n) Bigint.zero ints in
    Array.map (fun n -> Q.of_bigint (Bigint.div n g)) ints
  end
