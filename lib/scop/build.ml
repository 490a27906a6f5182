(* Mutable builder turning nested OCaml closures into a Program.t. *)

type vkey = VIter of int (* loop id *) | VParam of int

type aff = { terms : (vkey * int) list; k : int }

type arr = { arr_name : string; arr_dims : int }

type rexpr =
  | RConst of float
  | RLoad of arr * aff list
  | RBin of Expr.binop * rexpr * rexpr

type frame = { loop_id : int; iter_name : string; lb : aff; ub : aff }

type ctx = {
  prog_name : string;
  params : string array;
  defaults : int array;
  mutable arrays : Program.array_decl list; (* reversed *)
  mutable stmts : Statement.t list; (* reversed *)
  mutable stack : frame list; (* innermost first *)
  mutable beta_stack : int ref list; (* position counters, innermost first *)
  mutable next_loop_id : int;
}

(* --- affine expressions ------------------------------------------------ *)

let ci k = { terms = []; k }

let add_term terms key c =
  if c = 0 then terms
  else begin
    let rec go = function
      | [] -> [ (key, c) ]
      | (k', c') :: rest when k' = key ->
        let s = c + c' in
        if s = 0 then rest else (key, s) :: rest
      | t :: rest -> t :: go rest
    in
    go terms
  end

let aff_add a b =
  {
    terms = List.fold_left (fun acc (k, c) -> add_term acc k c) a.terms b.terms;
    k = a.k + b.k;
  }

let aff_neg a = { terms = List.map (fun (k, c) -> (k, -c)) a.terms; k = -a.k }
let ( +~ ) = aff_add
let ( -~ ) a b = aff_add a (aff_neg b)
let ( *~ ) s a = { terms = List.map (fun (k, c) -> (k, s * c)) a.terms; k = s * a.k }

(* --- rexpr -------------------------------------------------------------- *)

let f x = RConst x
let ( .%() ) arr idx = RLoad (arr, idx)
let ( +: ) a b = RBin (Expr.Add, a, b)
let ( -: ) a b = RBin (Expr.Sub, a, b)
let ( *: ) a b = RBin (Expr.Mul, a, b)
let ( /: ) a b = RBin (Expr.Div, a, b)
let min_ a b = RBin (Expr.Min, a, b)
let max_ a b = RBin (Expr.Max, a, b)

(* --- ctx ----------------------------------------------------------------- *)

let create ~name ~params =
  {
    prog_name = name;
    params = Array.of_list (List.map fst params);
    defaults = Array.of_list (List.map snd params);
    arrays = [];
    stmts = [];
    stack = [];
    beta_stack = [ ref 0 ];
    next_loop_id = 0;
  }

let param_index ctx name =
  let rec go i =
    if i >= Array.length ctx.params then raise Not_found
    else if ctx.params.(i) = name then i
    else go (i + 1)
  in
  go 0

let param ctx name = { terms = [ (VParam (param_index ctx name), 1) ]; k = 0 }

let aff_to_param_row ctx a =
  let np = Array.length ctx.params in
  let row = Array.make (np + 1) 0 in
  List.iter
    (fun (key, c) ->
      match key with
      | VParam p -> row.(p) <- row.(p) + c
      | VIter _ -> invalid_arg "Build.array: extent mentions an iterator")
    a.terms;
  row.(np) <- a.k;
  row

let array ctx name extents =
  let decl =
    {
      Program.array_name = name;
      extents = Array.of_list (List.map (aff_to_param_row ctx) extents);
    }
  in
  ctx.arrays <- decl :: ctx.arrays;
  { arr_name = name; arr_dims = List.length extents }

(* Resolve an aff to a row over [iters(d); params(np); 1] given the
   iterator environment (loop_id -> index, outermost first). *)
let aff_to_row ctx ~iter_ids a =
  let d = Array.length iter_ids in
  let np = Array.length ctx.params in
  let row = Array.make (d + np + 1) 0 in
  List.iter
    (fun (key, c) ->
      match key with
      | VParam p -> row.(d + p) <- row.(d + p) + c
      | VIter id ->
        let idx = ref (-1) in
        Array.iteri (fun i x -> if x = id then idx := i) iter_ids;
        if !idx < 0 then
          invalid_arg "Build: iterator used outside its loop";
        row.(!idx) <- row.(!idx) + c)
    a.terms;
  row.(d + np) <- a.k;
  row

let bump ctx =
  match ctx.beta_stack with
  | top :: _ ->
    let v = !top in
    incr top;
    v
  | [] -> assert false

let loop ctx iter_name ~lb ~ub body =
  let loop_id = ctx.next_loop_id in
  ctx.next_loop_id <- loop_id + 1;
  let _pos = bump ctx in
  ctx.stack <- { loop_id; iter_name; lb; ub } :: ctx.stack;
  ctx.beta_stack <- ref 0 :: ctx.beta_stack;
  body { terms = [ (VIter loop_id, 1) ]; k = 0 };
  ctx.stack <- List.tl ctx.stack;
  ctx.beta_stack <- List.tl ctx.beta_stack

let rec resolve_rexpr ctx ~iter_ids = function
  | RConst x -> Expr.Const x
  | RBin (op, a, b) ->
    Expr.Bin (op, resolve_rexpr ctx ~iter_ids a, resolve_rexpr ctx ~iter_ids b)
  | RLoad (arr, idx) ->
    if List.length idx <> arr.arr_dims then
      invalid_arg (Printf.sprintf "Build: arity mismatch on %s" arr.arr_name);
    Expr.Load
      (Access.make arr.arr_name
         (Array.of_list (List.map (aff_to_row ctx ~iter_ids) idx)))

let assign ctx name target idx rhs =
  let frames = List.rev ctx.stack (* outermost first *) in
  let iter_ids = Array.of_list (List.map (fun fr -> fr.loop_id) frames) in
  let iter_names = Array.of_list (List.map (fun fr -> fr.iter_name) frames) in
  let d = Array.length iter_ids in
  let np = Array.length ctx.params in
  (* domain: for each loop, iter - lb >= 0 and ub - iter >= 0 *)
  let cons =
    List.concat_map
      (fun fr ->
        let iv = { terms = [ (VIter fr.loop_id, 1) ]; k = 0 } in
        let low = aff_to_row ctx ~iter_ids (iv -~ fr.lb) in
        let up = aff_to_row ctx ~iter_ids (fr.ub -~ iv) in
        [ Poly.Constr.ge (Array.to_list low); Poly.Constr.ge (Array.to_list up) ])
      frames
  in
  let domain = Poly.Polyhedron.make (d + np) cons in
  if List.length idx <> target.arr_dims then
    invalid_arg (Printf.sprintf "Build: arity mismatch writing %s" target.arr_name);
  let write =
    Access.make target.arr_name
      (Array.of_list (List.map (aff_to_row ctx ~iter_ids) idx))
  in
  let rhs = resolve_rexpr ctx ~iter_ids rhs in
  let pos = bump ctx in
  (* beta = enclosing loop positions + own position; reconstruct the
     loop positions from the counters *)
  let outer_positions =
    (* counters: beta_stack is innermost-first and one longer than the
       stack; position of each loop was recorded when it was entered,
       which is (counter value at its level) - 1 ... we instead store it
       directly below *)
    List.rev_map (fun r -> !r - 1) (List.tl ctx.beta_stack)
  in
  let beta = Array.of_list (outer_positions @ [ pos ]) in
  let stmt =
    {
      Statement.id = List.length ctx.stmts;
      name;
      iters = iter_names;
      loop_ids = iter_ids;
      domain;
      write;
      rhs;
      beta;
    }
  in
  ctx.stmts <- stmt :: ctx.stmts

let finish ctx =
  Program.make ~name:ctx.prog_name ~params:ctx.params
    ~default_params:ctx.defaults
    ~arrays:(List.rev ctx.arrays)
    ~stmts:(Array.of_list (List.rev ctx.stmts))
