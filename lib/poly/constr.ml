open Linalg

type kind = Eq | Ge

type t = { kind : kind; coeffs : Vec.t }

let make kind coeffs =
  if Vec.dim coeffs < 1 then invalid_arg "Constr.make: needs a constant";
  (* primitive integer coefficients, orientation preserved, in a fresh array *)
  { kind; coeffs = Vec.normalize_int coeffs }

let unsafe_make kind coeffs = { kind; coeffs }

let ge l = make Ge (Vec.of_int_list l)
let eq l = make Eq (Vec.of_int_list l)

let dim c = Vec.dim c.coeffs - 1
let kind c = c.kind
let coeffs c = c.coeffs
let coeff c i = c.coeffs.(i)
let const c = c.coeffs.(Vec.dim c.coeffs - 1)

let eval c x =
  let n = dim c in
  if Vec.dim x <> n then invalid_arg "Constr.eval: dimension mismatch";
  let acc = ref (const c) in
  for i = 0 to n - 1 do
    acc := Q.add !acc (Q.mul c.coeffs.(i) x.(i))
  done;
  !acc

let holds c x =
  let v = eval c x in
  match c.kind with
  | Eq -> Q.is_zero v
  | Ge -> Q.sign v >= 0

let is_trivial c =
  let n = dim c in
  let all_zero =
    let rec go i = i >= n || (Q.is_zero c.coeffs.(i) && go (i + 1)) in
    go 0
  in
  if not all_zero then None
  else begin
    let k = const c in
    match c.kind with
    | Eq -> Some (Q.is_zero k)
    | Ge -> Some (Q.sign k >= 0)
  end

let negate_int c =
  match c.kind with
  | Eq -> invalid_arg "Constr.negate_int: equality"
  | Ge ->
    let v = Vec.neg c.coeffs in
    let n = Vec.dim v in
    v.(n - 1) <- Q.sub v.(n - 1) Q.one;
    make Ge v

let rename ~dim_to f c =
  let n = dim c in
  let v = Vec.zero (dim_to + 1) in
  for i = 0 to n - 1 do
    if not (Q.is_zero c.coeffs.(i)) then begin
      let j = f i in
      if j < 0 || j >= dim_to then invalid_arg "Constr.rename: target out of range";
      v.(j) <- Q.add v.(j) c.coeffs.(i)
    end
  done;
  v.(dim_to) <- const c;
  make c.kind v

let tighten_int c =
  match c.kind with
  | Eq -> c
  | Ge ->
    let n = dim c in
    (* after normalization coefficients are integers with overall gcd 1
       (including the constant); compute the gcd of the variable
       coefficients alone *)
    let g =
      let acc = ref Bigint.zero in
      for i = 0 to n - 1 do
        acc := Bigint.gcd !acc (Q.num c.coeffs.(i))
      done;
      !acc
    in
    if Bigint.is_zero g || Bigint.is_one g then c
    else begin
      let v = Vec.zero (n + 1) in
      for i = 0 to n - 1 do
        v.(i) <- Q.of_bigint (Bigint.div (Q.num c.coeffs.(i)) g)
      done;
      v.(n) <- Q.of_bigint (Bigint.fdiv (Q.num (const c)) g);
      unsafe_make Ge v
    end

let structural_key c =
  let buf = Buffer.create 32 in
  Buffer.add_char buf (match c.kind with Eq -> 'e' | Ge -> 'g');
  Array.iter
    (fun q ->
      Buffer.add_char buf ' ';
      (* a native integer, nearly every coefficient, prints as
         [Q.to_string] would without building its string *)
      let n = Q.num q in
      if Q.is_integer q && Bigint.is_small n then Obs.Json.add_int buf (Bigint.to_int n)
      else Buffer.add_string buf (Q.to_string q))
    c.coeffs;
  Buffer.contents buf

let equal a b = a.kind = b.kind && Vec.equal a.coeffs b.coeffs

let compare a b =
  match compare a.kind b.kind with
  | 0 ->
    let ca = a.coeffs and cb = b.coeffs in
    let la = Vec.dim ca and lb = Vec.dim cb in
    if la <> lb then Stdlib.compare la lb
    else begin
      let rec go i =
        if i >= la then 0
        else begin
          match Q.compare ca.(i) cb.(i) with 0 -> go (i + 1) | c -> c
        end
      in
      go 0
    end
  | c -> c

let pp ?names fmt c =
  let n = dim c in
  let name i =
    match names with
    | Some a when i < Array.length a -> a.(i)
    | _ -> Printf.sprintf "x%d" i
  in
  let first = ref true in
  let buf = Buffer.create 32 in
  for i = 0 to n - 1 do
    let a = c.coeffs.(i) in
    if not (Q.is_zero a) then begin
      if Q.sign a > 0 && not !first then Buffer.add_string buf " + "
      else if Q.sign a < 0 then Buffer.add_string buf (if !first then "-" else " - ");
      let mag = Q.abs a in
      if not (Q.equal mag Q.one) then Buffer.add_string buf (Q.to_string mag ^ "*");
      Buffer.add_string buf (name i);
      first := false
    end
  done;
  let k = const c in
  if !first then Buffer.add_string buf (Q.to_string k)
  else if Q.sign k > 0 then Buffer.add_string buf (" + " ^ Q.to_string k)
  else if Q.sign k < 0 then Buffer.add_string buf (" - " ^ Q.to_string (Q.abs k));
  Buffer.add_string buf (match c.kind with Eq -> " = 0" | Ge -> " >= 0");
  Format.pp_print_string fmt (Buffer.contents buf)
