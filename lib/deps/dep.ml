open Scop

type kind = Flow | Anti | Output | Input

type level = Carried of int | Independent

type tag = Normal | Reduction

type t = {
  src : int;
  dst : int;
  kind : kind;
  src_access : Access.t;
  dst_access : Access.t;
  level : level;
  poly : Poly.Polyhedron.t;
  tag : tag;
}

let is_true d = d.kind <> Input

let src_iter_col i = i
let dst_iter_col ~d1 i = d1 + i
let param_col ~d1 ~d2 p = d1 + d2 + p

(* Build a constraint row over the dependence space from an access row
   of the source (or destination) statement. An access row is laid out
   [iters(d); params(np); 1]. *)
let lift_row ~d1 ~d2 ~np ~side (row : int array) =
  let d = match side with `Src -> d1 | `Dst -> d2 in
  let out = Array.make (d1 + d2 + np + 1) 0 in
  for i = 0 to d - 1 do
    let col = match side with `Src -> src_iter_col i | `Dst -> dst_iter_col ~d1 i in
    out.(col) <- row.(i)
  done;
  for p = 0 to np - 1 do
    out.(param_col ~d1 ~d2 p) <- row.(d + p)
  done;
  out.(d1 + d2 + np) <- row.(d + np);
  out

(* subtract two lifted rows: src access row minus dst access row *)
let equality_row ~d1 ~d2 ~np src_row dst_row =
  let a = lift_row ~d1 ~d2 ~np ~side:`Src src_row in
  let b = lift_row ~d1 ~d2 ~np ~side:`Dst dst_row in
  Array.mapi (fun i v -> v - b.(i)) a

(* The base polyhedron for a (src, dst) statement pair: both domains and
   subscript equality, without any ordering constraint. Returns None on
   arity mismatch (ill-typed program, not our concern here). *)
let base_poly ~np (src : Statement.t) (dst : Statement.t) src_acc dst_acc =
  if Access.arity src_acc <> Access.arity dst_acc then None
  else begin
    let d1 = Statement.depth src and d2 = Statement.depth dst in
    let dim = d1 + d2 + np in
    let src_dom =
      Poly.Polyhedron.rename src.domain ~dim_to:dim (fun i ->
          if i < d1 then src_iter_col i else param_col ~d1 ~d2 (i - d1))
    in
    let dst_dom =
      Poly.Polyhedron.rename dst.domain ~dim_to:dim (fun i ->
          if i < d2 then dst_iter_col ~d1 i else param_col ~d1 ~d2 (i - d2))
    in
    let eqs =
      Array.to_list
        (Array.mapi
           (fun r src_row ->
             Poly.Constr.eq
               (Array.to_list (equality_row ~d1 ~d2 ~np src_row dst_acc.Access.idx.(r))))
           src_acc.Access.idx)
    in
    Some (Poly.Polyhedron.add_list (Poly.Polyhedron.intersect src_dom dst_dom) eqs)
  end

(* ordering constraints for level [l] (carried): s_k = t_k for k < l,
   and t_l - s_l - 1 >= 0 *)
let carried_constraints ~d1 ~d2 ~np l =
  let dim = d1 + d2 + np in
  let eq_at k =
    let row = Array.make (dim + 1) 0 in
    row.(src_iter_col k) <- 1;
    row.(dst_iter_col ~d1 k) <- -1;
    Poly.Constr.eq (Array.to_list row)
  in
  let strict =
    let row = Array.make (dim + 1) 0 in
    row.(dst_iter_col ~d1 l) <- 1;
    row.(src_iter_col l) <- -1;
    row.(dim) <- -1;
    Poly.Constr.ge (Array.to_list row)
  in
  strict :: List.init l eq_at

(* loop-independent: equality on all common loops *)
let independent_constraints ~d1 ~d2 ~np common =
  let dim = d1 + d2 + np in
  List.init common (fun k ->
      let row = Array.make (dim + 1) 0 in
      row.(src_iter_col k) <- 1;
      row.(dst_iter_col ~d1 k) <- -1;
      Poly.Constr.eq (Array.to_list row))

let param_floor_constraints ~d1 ~d2 ~np floor =
  List.init np (fun p ->
      let row = Array.make (d1 + d2 + np + 1) 0 in
      row.(param_col ~d1 ~d2 p) <- 1;
      row.(d1 + d2 + np) <- -floor;
      Poly.Constr.ge (Array.to_list row))

let classify_kind src_is_write dst_is_write =
  match (src_is_write, dst_is_write) with
  | true, false -> Flow
  | false, true -> Anti
  | true, true -> Output
  | false, false -> Input

let analyze ?(param_floor = 2) (prog : Program.t) =
  let np = Program.nparams prog in
  let deps = ref [] in
  let stmts = prog.stmts in
  let consider (src : Statement.t) (dst : Statement.t) src_acc src_w dst_acc dst_w =
    if Access.same_array src_acc dst_acc then begin
      let kind = classify_kind src_w dst_w in
      match base_poly ~np src dst src_acc dst_acc with
      | None -> ()
      | Some base ->
        let d1 = Statement.depth src and d2 = Statement.depth dst in
        let base =
          Poly.Polyhedron.add_list base
            (param_floor_constraints ~d1 ~d2 ~np param_floor)
        in
        let common = Statement.common_loops src dst in
        let try_level level cons =
          let p = Poly.Polyhedron.add_list base cons in
          if Ilp.Bb.feasible p then
            deps :=
              {
                src = src.id;
                dst = dst.id;
                kind;
                src_access = src_acc;
                dst_access = dst_acc;
                level;
                poly = p;
                tag = Normal;
              }
              :: !deps
        in
        for l = 0 to common - 1 do
          try_level (Carried l) (carried_constraints ~d1 ~d2 ~np l)
        done;
        (* loop-independent: only if src textually precedes dst *)
        if Statement.textual_before src dst then
          try_level Independent (independent_constraints ~d1 ~d2 ~np common)
    end
  in
  Array.iter
    (fun (src : Statement.t) ->
      Array.iter
        (fun (dst : Statement.t) ->
          (* all ordered pairs, including src = dst (self loop-carried) *)
          List.iter
            (fun (sa, sw) ->
              List.iter
                (fun (da, dw) ->
                  (* skip pure read-read of the same textual access in
                     the same statement: it is trivially the same value *)
                  if not (src.id = dst.id && (not sw) && not dw && Access.equal sa da)
                  then consider src dst sa sw da dw)
                ((dst.write, true) :: List.map (fun a -> (a, false)) (Statement.reads dst)))
            ((src.write, true) :: List.map (fun a -> (a, false)) (Statement.reads src)))
        stmts)
    stmts;
  let deps = List.rev !deps in
  if Obs.Trace.on () then begin
    let count k = List.length (List.filter (fun d -> d.kind = k) deps) in
    Obs.Trace.instant ~cat:"deps" "deps.analyzed"
      ~args:
        [
          ("total", Obs.Json.Int (List.length deps));
          ("flow", Obs.Json.Int (count Flow));
          ("anti", Obs.Json.Int (count Anti));
          ("output", Obs.Json.Int (count Output));
          ("input", Obs.Json.Int (count Input));
          ("param-floor", Obs.Json.Int param_floor);
        ]
  end;
  deps

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"
  | Input -> "input"

let pp fmt d =
  let lvl =
    match d.level with
    | Carried l -> Printf.sprintf "carried@%d" l
    | Independent -> "indep"
  in
  let tag = match d.tag with Normal -> "" | Reduction -> ", reduction" in
  Format.fprintf fmt "S%d -> S%d [%s, %s, %s%s]" d.src d.dst (kind_to_string d.kind)
    d.src_access.Access.array lvl tag
