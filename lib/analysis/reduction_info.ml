(* Typed facts produced by the reduction detector. *)

type t = {
  stmt : int;
  op : Scop.Expr.binop;
  acc : Scop.Access.t;
  covered : int list;
  chain_levels : int list;
}

let op_name (i : t) = Scop.Expr.op_str i.op

let for_stmt facts id = List.find_opt (fun i -> i.stmt = id) facts
