open Linalg

type row = Hyp of int array | Beta of int

type t = row list array

let row_as_hyp ~depth ~np = function
  | Hyp h ->
    if Array.length h <> depth + np + 1 then invalid_arg "Sched.row_as_hyp: width";
    h
  | Beta b ->
    let h = Array.make (depth + np + 1) 0 in
    h.(depth + np) <- b;
    h

(* phi_dst(t) - phi_src(s) over [s(d1); t(d2); p(np); 1] *)
let phi_diff ~d1 ~d2 ~np src_row dst_row =
  if Array.length src_row <> d1 + np + 1 then invalid_arg "Sched.phi_diff: src width";
  if Array.length dst_row <> d2 + np + 1 then invalid_arg "Sched.phi_diff: dst width";
  let v = Vec.zero (d1 + d2 + np + 1) in
  for i = 0 to d1 - 1 do
    v.(i) <- Q.of_int (-src_row.(i))
  done;
  for j = 0 to d2 - 1 do
    v.(d1 + j) <- Q.of_int dst_row.(j)
  done;
  for p = 0 to np - 1 do
    v.(d1 + d2 + p) <- Q.of_int (dst_row.(d2 + p) - src_row.(d1 + p))
  done;
  v.(d1 + d2 + np) <- Q.of_int (dst_row.(d2 + np) - src_row.(d1 + np));
  v

let num_rows (s : t) =
  if Array.length s = 0 then invalid_arg "Sched.num_rows: no statements";
  List.length s.(0)

(* statements sharing every scalar row before their first loop row
   share the outermost nest; groups are numbered by first occurrence *)
let outer_partition (s : t) =
  let rec prefix acc = function
    | Beta b :: rest -> prefix (b :: acc) rest
    | Hyp _ :: _ | [] -> List.rev acc
  in
  let groups = Hashtbl.create 8 in
  Array.map
    (fun rows ->
      let k = prefix [] rows in
      match Hashtbl.find_opt groups k with
      | Some g -> g
      | None ->
        let g = Hashtbl.length groups in
        Hashtbl.add groups k g;
        g)
    s

let pp_row ~iter_names ~param_names fmt = function
  | Beta b -> Format.fprintf fmt "[%d]" b
  | Hyp h ->
    let d = Array.length iter_names in
    Format.pp_print_string fmt
      (Scop.Access.affine
         (fun i -> if i < d then iter_names.(i) else param_names.(i - d))
         h)

let pp (prog : Scop.Program.t) fmt (s : t) =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun id rows ->
      let st = prog.stmts.(id) in
      Format.fprintf fmt "T_%s = (" st.Scop.Statement.name;
      List.iteri
        (fun i r ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_row ~iter_names:st.Scop.Statement.iters ~param_names:prog.params fmt r)
        rows;
      Format.fprintf fmt ")@,")
    s;
  Format.fprintf fmt "@]"
