open Linalg

(* The stored order (see the interface): [cons] is sorted by
   [Constr.compare], holds no duplicate, of parallel inequalities only
   the tightest, and no trivially true or false row. Every operation
   below but [make] and [rename] keeps it rather than sorting again. *)
type t = {
  dim : int;
  cons : Constr.t list;
  known_empty : bool; (* a trivially-false constraint was seen *)
}

let dim p = p.dim
let false_row dim = Constr.rename ~dim_to:dim (fun _ -> 0) (Constr.ge [ -1 ])
let constraints p = if p.known_empty then [ false_row p.dim ] else p.cons

(* [Constr.compare] without the constant: kind, then the variable
   coefficients in column order. Rows equal here are parallel. *)
let cmp_varpart a b =
  match compare (Constr.kind a) (Constr.kind b) with
  | 0 ->
    let ca = Constr.coeffs a and cb = Constr.coeffs b in
    let n = Vec.dim ca - 1 in
    let rec go i =
      if i >= n then 0
      else match Q.compare ca.(i) cb.(i) with 0 -> go (i + 1) | c -> c
    in
    go 0
  | c -> c

(* Merge two lists in stored order. Parallel rows sort next to each
   other, and each list holds at most one inequality per direction, so
   the heads are the only place two parallel rows meet: of two
   inequalities the smaller constant stays; of two equalities an exact
   copy goes, but contradictory ones both stay so that emptiness checks
   see them. *)
let[@tail_mod_cons] rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' -> (
    match cmp_varpart x y with
    | c when c < 0 -> x :: merge xs' ys
    | c when c > 0 -> y :: merge xs ys'
    | _ -> (
      match Q.compare (Constr.const x) (Constr.const y) with
      | 0 -> x :: merge xs' ys'
      | c when Constr.kind x = Constr.Ge ->
        (if c < 0 then x else y) :: merge xs' ys'
      | c when c < 0 -> x :: merge xs' ys
      | _ -> y :: merge xs ys'))

(* Stored order for non-trivial rows in any order: a bottom-up merge
   sort over [merge], so one rule decides every duplicate. *)
let sort_rows cons =
  let rec pairs = function
    | a :: b :: rest -> merge a b :: pairs rest
    | l -> l
  in
  let rec sort = function
    | [] -> []
    | [ l ] -> l
    | ls -> sort (pairs ls)
  in
  sort (List.map (fun c -> [ c ]) cons)

let classify cons =
  (* split into (empty?, useful constraints in stored order) *)
  let useful = ref [] in
  let falsity = ref false in
  List.iter
    (fun c ->
      match Constr.is_trivial c with
      | Some true -> ()
      | Some false -> falsity := true
      | None -> useful := c :: !useful)
    cons;
  (!falsity, sort_rows !useful)

let make dim cons =
  List.iter
    (fun c ->
      if Constr.dim c <> dim then invalid_arg "Polyhedron.make: dimension mismatch")
    cons;
  let falsity, cons = classify cons in
  { dim; cons; known_empty = falsity }

let universe dim = { dim; cons = []; known_empty = false }
let empty dim = { dim; cons = []; known_empty = true }

let add p c =
  if Constr.dim c <> p.dim then invalid_arg "Polyhedron.add: dimension mismatch";
  match Constr.is_trivial c with
  | Some true -> p
  | Some false -> { p with known_empty = true }
  | None -> { p with cons = merge [ c ] p.cons }

let add_list p cs = List.fold_left add p cs

let intersect a b =
  if a.dim <> b.dim then invalid_arg "Polyhedron.intersect: dimension mismatch";
  {
    dim = a.dim;
    cons = merge a.cons b.cons;
    known_empty = a.known_empty || b.known_empty;
  }

let filter f p =
  if p.known_empty then if f 0 (false_row p.dim) then empty p.dim else universe p.dim
  else { p with cons = List.filteri f p.cons }

let contains p x =
  (not p.known_empty) && List.for_all (fun c -> Constr.holds c x) p.cons

let contains_int p x = contains p (Array.map Q.of_int x)

(* --- Fourier-Motzkin ------------------------------------------------- *)

(* Eliminate variable [k] from a constraint list: the rows the step
   creates, in no particular order, and the rows without [k], which keep
   their order. The variable keeps its slot (coefficient forced to
   zero); [eliminate] compacts the space afterwards. *)
let fm_step ~integer cons k =
  let coeff c = Constr.coeff c k in
  let with_k, without_k = List.partition (fun c -> not (Q.is_zero (coeff c))) cons in
  (* gcd-tighten the inequalities about to be combined - only sound when
     the eliminated variable ranges over integers *)
  let with_k = if integer then List.map Constr.tighten_int with_k else with_k in
  match List.find_opt (fun c -> Constr.kind c = Constr.Eq) with_k with
  | Some e ->
    (* substitute using the equality: c' = c - (b/a) e *)
    let a = coeff e in
    let reduced =
      List.filter_map
        (fun c ->
          if c == e then None
          else begin
            let b = coeff c in
            let f = Q.neg (Q.div b a) in
            let v = Vec.add (Constr.coeffs c) (Vec.scale f (Constr.coeffs e)) in
            Some (Constr.make (Constr.kind c) v)
          end)
        with_k
    in
    (reduced, without_k)
  | None ->
    (* all occurrences are inequalities: combine pos/neg pairs *)
    let pos, neg = List.partition (fun c -> Q.sign (coeff c) > 0) with_k in
    let combos =
      List.concat_map
        (fun p ->
          List.map
            (fun m ->
              let a = coeff p and b = coeff m in
              (* |b| * p + a * m has zero coefficient on k *)
              let v =
                Vec.add
                  (Vec.scale (Q.abs b) (Constr.coeffs p))
                  (Vec.scale a (Constr.coeffs m))
              in
              let c = Constr.make Constr.Ge v in
              if integer then Constr.tighten_int c else c)
            neg)
        pos
    in
    (combos, without_k)

let eliminate ?(integer = true) p vars =
  let vars = List.sort_uniq compare vars in
  List.iter
    (fun v ->
      if v < 0 || v >= p.dim then invalid_arg "Polyhedron.eliminate: bad index")
    vars;
  let new_dim = p.dim - List.length vars in
  (* a step leaves the rows without its variable in stored order, so
     only the rows it creates are classified and sorted, then merged *)
  let rec steps cons = function
    | [] -> Some cons
    | k :: rest ->
      let fresh, untouched = fm_step ~integer cons k in
      let falsity, fresh = classify fresh in
      if falsity then None else steps (merge fresh untouched) rest
  in
  match if p.known_empty then None else steps p.cons vars with
  | None -> empty new_dim
  | Some cons ->
    (* every eliminated column is zero in every row, so dropping it
       changes neither a row's normal form nor the order *)
    let kept =
      Array.of_list
        (List.filter (fun i -> not (List.mem i vars)) (List.init (p.dim + 1) Fun.id))
    in
    let compact c =
      let v = Constr.coeffs c in
      Constr.unsafe_make (Constr.kind c) (Array.map (fun i -> v.(i)) kept)
    in
    { dim = new_dim; cons = List.map compact cons; known_empty = false }

let is_empty p =
  if p.known_empty then true
  else begin
    let q = eliminate p (List.init p.dim Fun.id) in
    q.known_empty
  end

let rename p ~dim_to f =
  (* merged columns can cancel a row into a trivial one *)
  let falsity, cons = classify (List.map (Constr.rename ~dim_to f) p.cons) in
  { dim = dim_to; cons; known_empty = p.known_empty || falsity }

let integer_points ~lo ~hi p =
  if Array.length lo <> p.dim || Array.length hi <> p.dim then
    invalid_arg "Polyhedron.integer_points: box dimension mismatch";
  if p.known_empty then []
  else begin
    let acc = ref [] in
    let point = Array.make p.dim 0 in
    let rec go i =
      if i = p.dim then begin
        if contains_int p point then acc := Array.copy point :: !acc
      end
      else
        for v = lo.(i) to hi.(i) do
          point.(i) <- v;
          go (i + 1)
        done
    in
    go 0;
    List.rev !acc
  end

let lower_upper_bounds p k =
  let lower = ref [] and upper = ref [] and rest = ref [] in
  List.iter
    (fun c ->
      let a = Constr.coeff c k in
      match (Constr.kind c, Q.sign a) with
      | _, 0 -> rest := c :: !rest
      | Constr.Ge, s -> if s > 0 then lower := c :: !lower else upper := c :: !upper
      | Constr.Eq, s ->
        (* an equality bounds from both sides; orient so the lower-side
           copy has a positive coefficient on k *)
        let v = Constr.coeffs c in
        let pos = if s > 0 then v else Vec.neg v in
        lower := Constr.make Constr.Ge pos :: !lower;
        upper := Constr.make Constr.Ge (Vec.neg pos) :: !upper)
    p.cons;
  (List.rev !lower, List.rev !upper, List.rev !rest)

let structural_key p =
  let buf = Buffer.create 128 in
  Obs.Json.add_int buf p.dim;
  if p.known_empty then Buffer.add_string buf "!empty";
  List.iter
    (fun c ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (Constr.structural_key c))
    p.cons;
  Buffer.contents buf

let equal a b =
  a.dim = b.dim && a.known_empty = b.known_empty
  && List.equal Constr.equal a.cons b.cons
