open Linalg
open Poly

(* The local coefficient space (layout in farkas.mli) and its columns. *)
let local_dim ~d1 ~d2 ~np = d1 + d2 + np + 3

let src_coeff i = i
let src_const ~d1 = d1
let dst_coeff ~d1 j = d1 + 1 + j
let dst_const ~d1 ~d2 = d1 + 1 + d2
let u_col ~d1 ~d2 p = d1 + d2 + 2 + p
let w_col ~d1 ~d2 ~np = d1 + d2 + 2 + np

(* [space_for ~form ~nloc poly] constrains the [nloc] local unknowns so
   that the affine form — given per z-column as a sparse list of
   [(local_var, coefficient)] pairs, column [dim poly] being the
   constant — is non-negative everywhere on [poly]. *)
let space_for ~form ~nloc poly =
  let dz = Polyhedron.dim poly in
  let cons = Polyhedron.constraints poly in
  let ncons = List.length cons in
  let nmul = 1 + ncons in
  (* variables: [locals (nloc); lambda0; lambda_1 .. lambda_ncons] *)
  let dim = nloc + nmul in
  let lam0 = nloc in
  let lam j = nloc + 1 + j in
  let eqs = ref [] in
  (* one equality per z-dimension: form_k(c) - sum_j lambda_j a_jk = 0 *)
  for k = 0 to dz - 1 do
    let row = Array.make (dim + 1) 0 in
    List.iter (fun (v, c) -> row.(v) <- row.(v) + c) (form k);
    List.iteri
      (fun j con ->
        let a = Constr.coeff con k in
        (* constraints are normalized to integer coefficients *)
        row.(lam j) <- -Bigint.to_int (Q.num a))
      cons;
    eqs := Constr.eq (Array.to_list row) :: !eqs
  done;
  (* the constant: form_const(c) - lambda0 - sum_j lambda_j b_j = 0 *)
  let crow = Array.make (dim + 1) 0 in
  List.iter (fun (v, c) -> crow.(v) <- crow.(v) + c) (form dz);
  crow.(lam0) <- -1;
  List.iteri
    (fun j con -> crow.(lam j) <- -Bigint.to_int (Q.num (Constr.const con)))
    cons;
  eqs := Constr.eq (Array.to_list crow) :: !eqs;
  (* lambda0 >= 0 and lambda_j >= 0 for inequalities (free for equalities) *)
  let nonneg v =
    let row = Array.make (dim + 1) 0 in
    row.(v) <- 1;
    Constr.ge (Array.to_list row)
  in
  let ineqs =
    nonneg lam0
    :: List.concat
         (List.mapi
            (fun j con ->
              match Constr.kind con with
              | Constr.Ge -> [ nonneg (lam j) ]
              | Constr.Eq -> [])
            cons)
  in
  let sys = Polyhedron.make dim (!eqs @ ineqs) in
  (* eliminate the multipliers one at a time (they are rational: no gcd
     tightening). Plain Fourier-Motzkin can blow up doubly
     exponentially on wider stencils (sp's +-2 offsets), so (a) pick a
     greedy elimination order - equality substitutions first, then the
     variable with the fewest positive*negative pairings - and (b)
     prune redundant rows with small LPs whenever a step grew the
     system *)
  let p = ref sys in
  while Polyhedron.dim !p > nloc do
    let cons = Polyhedron.constraints !p in
    let d = Polyhedron.dim !p in
    let best = ref (-1) and best_score = ref max_int in
    for v = nloc to d - 1 do
      let pos = ref 0 and neg = ref 0 and in_eq = ref false in
      List.iter
        (fun c ->
          let s = Linalg.Q.sign (Constr.coeff c v) in
          if s <> 0 && Constr.kind c = Constr.Eq then in_eq := true
          else if s > 0 then incr pos
          else if s < 0 then incr neg)
        cons;
      let score = if !in_eq then -1 else !pos * !neg in
      if score < !best_score then begin
        best_score := score;
        best := v
      end
    done;
    let before = List.length cons in
    p := Polyhedron.eliminate ~integer:false !p [ !best ];
    if List.length (Polyhedron.constraints !p) > max 24 before then
      p := Ilp.Bb.remove_redundant !p
  done;
  Ilp.Bb.remove_redundant !p

(* --- structural memoization -------------------------------------------

   [legality_space] and [bounding_space] are pure functions of
   (d1, d2, np) and the dependence polyhedron's constraint system.
   Kernels routinely carry many dependence edges with structurally
   identical polyhedra — uniform stencil accesses over the same domain
   differ only in which array they touch — so the (expensive)
   multiplier elimination is keyed on {!Polyhedron.structural_key} and
   run once per equivalence class. The memo is a value its schedule
   search creates and passes down, so it ends with that search and no
   two searches share a table. *)

type memo = (string, Polyhedron.t) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let reset_cache () = ()

let cache_event ~tag ~d1 ~d2 ~np ~hit =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"ilp" "farkas.cache"
      ~args:
        [
          ("tag", Obs.Json.Str tag);
          ("d1", Obs.Json.Int d1);
          ("d2", Obs.Json.Int d2);
          ("np", Obs.Json.Int np);
          ("hit", Obs.Json.Bool hit);
        ]

let memoized (memo : memo) ~tag ~d1 ~d2 ~np poly compute =
  let key =
    Printf.sprintf "%s:%d:%d:%d:%s" tag d1 d2 np
      (Polyhedron.structural_key poly)
  in
  match Hashtbl.find_opt memo key with
  | Some r ->
    Counters.(incr farkas_cache_hits);
    cache_event ~tag ~d1 ~d2 ~np ~hit:true;
    r
  | None ->
    Counters.(incr farkas_cache_misses);
    cache_event ~tag ~d1 ~d2 ~np ~hit:false;
    let r = compute () in
    Hashtbl.add memo key r;
    r

(* legality: phi_dst(t) - phi_src(s) >= 0
   coefficient of s_i: -c_src_i; of t_j: +c_dst_j; of p: 0;
   constant: c_dst0 - c_src0 *)
let legality_space ~memo ~d1 ~d2 ~np poly =
  let nloc = local_dim ~d1 ~d2 ~np in
  let dz = d1 + d2 + np in
  if Polyhedron.dim poly <> dz then invalid_arg "Farkas.legality_space: dims";
  memoized memo ~tag:"L" ~d1 ~d2 ~np poly (fun () ->
      let form k =
        if k < d1 then [ (src_coeff k, -1) ]
        else if k < d1 + d2 then [ (dst_coeff ~d1 (k - d1), 1) ]
        else if k < dz then [] (* parameters do not appear in phi *)
        else [ (dst_const ~d1 ~d2, 1); (src_const ~d1, -1) ]
      in
      space_for ~form ~nloc poly)

(* bounding: u.p + w - (phi_dst(t) - phi_src(s)) >= 0 *)
let bounding_space ~memo ~d1 ~d2 ~np poly =
  let nloc = local_dim ~d1 ~d2 ~np in
  let dz = d1 + d2 + np in
  if Polyhedron.dim poly <> dz then invalid_arg "Farkas.bounding_space: dims";
  memoized memo ~tag:"B" ~d1 ~d2 ~np poly (fun () ->
      let form k =
        if k < d1 then [ (src_coeff k, 1) ]
        else if k < d1 + d2 then [ (dst_coeff ~d1 (k - d1), -1) ]
        else if k < dz then [ (u_col ~d1 ~d2 (k - d1 - d2), 1) ]
        else
          [ (w_col ~d1 ~d2 ~np, 1); (src_const ~d1, 1); (dst_const ~d1 ~d2, -1) ]
      in
      space_for ~form ~nloc poly)
