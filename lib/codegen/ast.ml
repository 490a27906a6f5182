type bound = { num : int array; den : int }

type parallelism = Pluto.Satisfy.loop_class =
  | Parallel
  | Parallel_reduction
  | Forward
  | Sequential

type instance = {
  stmt_id : int;
  sel_levels : int array;
  hinv_num : int array array;
  det : int;
  g : int array array;
  const_rows : (int * int array) array;
}

type node =
  | Exec of instance
  | Seq of node list
  | Loop of loop

and loop = {
  level : int;
  lb_groups : bound list list;
  ub_groups : bound list list;
  group_stmts : int list;
      (* statement id owning each bound group, positionally *)
  par : parallelism;
  body : node;
}

(* --- walks ---------------------------------------------------------------- *)

let rec iter_loops f = function
  | Exec _ -> ()
  | Seq nodes -> List.iter (iter_loops f) nodes
  | Loop l ->
    f l;
    iter_loops f l.body

let rec map_loops f = function
  | Exec _ as n -> n
  | Seq nodes -> Seq (List.map (map_loops f) nodes)
  | Loop l -> Loop (f { l with body = map_loops f l.body })

let rec map_instances f = function
  | Exec inst -> Exec (f inst)
  | Seq nodes -> Seq (List.map (map_instances f) nodes)
  | Loop l -> Loop { l with body = map_instances f l.body }

let instances node =
  let acc = ref [] in
  let rec go = function
    | Exec inst -> acc := inst :: !acc
    | Seq nodes -> List.iter go nodes
    | Loop l -> go l.body
  in
  go node;
  List.rev !acc

let members node = List.map (fun i -> i.stmt_id) (instances node)

(* floor/ceil division for possibly-negative numerators *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)

let eval_num (num : int array) ~outer ~params =
  let no = Array.length outer and np = Array.length params in
  if Array.length num <> no + np + 1 then
    invalid_arg "Ast.eval_bound: width mismatch";
  let acc = ref num.(no + np) in
  for i = 0 to no - 1 do
    acc := !acc + (num.(i) * outer.(i))
  done;
  for p = 0 to np - 1 do
    acc := !acc + (num.(no + p) * params.(p))
  done;
  !acc

let eval_bound b ~outer ~params ~lower =
  let v = eval_num b.num ~outer ~params in
  if b.den = 1 then v
  else if lower then cdiv v b.den
  else fdiv v b.den

let loop_range l ~outer ~params =
  let group_lb g =
    List.fold_left
      (fun acc b -> max acc (eval_bound b ~outer ~params ~lower:true))
      min_int g
  in
  let group_ub g =
    List.fold_left
      (fun acc b -> min acc (eval_bound b ~outer ~params ~lower:false))
      max_int g
  in
  let lb =
    List.fold_left (fun acc g -> min acc (group_lb g)) max_int l.lb_groups
  in
  let ub =
    List.fold_left (fun acc g -> max acc (group_ub g)) min_int l.ub_groups
  in
  (lb, ub)

let param_part_eval (row : int array) ~params =
  let np = Array.length params in
  let acc = ref row.(np) in
  for p = 0 to np - 1 do
    acc := !acc + (row.(p) * params.(p))
  done;
  !acc

let instance_iters inst ~y ~params =
  (* constant-row guard *)
  let ok = ref true in
  Array.iter
    (fun (level, row) ->
      if y.(level) <> param_part_eval row ~params then ok := false)
    inst.const_rows;
  if not !ok then None
  else begin
    let d = Array.length inst.sel_levels in
    let x = Array.make d 0 in
    let rhs =
      Array.mapi
        (fun k level -> y.(level) - param_part_eval inst.g.(k) ~params)
        inst.sel_levels
    in
    let integral = ref true in
    for i = 0 to d - 1 do
      let acc = ref 0 in
      for j = 0 to d - 1 do
        acc := !acc + (inst.hinv_num.(i).(j) * rhs.(j))
      done;
      if !acc mod inst.det <> 0 then integral := false
      else x.(i) <- !acc / inst.det
    done;
    if !integral then Some x else None
  end

(* --- pretty printing ----------------------------------------------------- *)

(* a bound numerator over [t0 .. t(l-1); params; 1] *)
let num_to_string (prog : Scop.Program.t) (num : int array) =
  let no = Array.length num - Scop.Program.nparams prog - 1 in
  Scop.Access.affine
    (fun i -> if i < no then "t" ^ string_of_int i else prog.params.(i - no))
    num

let bound_to_string prog ~lower (b : bound) =
  if b.den = 1 then num_to_string prog b.num
  else
    Printf.sprintf "%s(%s, %d)"
      (if lower then "ceild" else "floord")
      (num_to_string prog b.num) b.den

let pp_bound prog ~lower fmt b =
  Format.pp_print_string fmt (bound_to_string prog ~lower b)

let pp_bound_groups prog ~lower fmt groups =
  (* drop duplicate bounds and duplicate groups for readability *)
  let dedup l = List.sort_uniq compare l in
  let groups = dedup (List.map dedup groups) in
  let pp_group fmt g =
    match g with
    | [ b ] -> pp_bound prog ~lower fmt b
    | _ ->
      Format.fprintf fmt "%s(" (if lower then "max" else "min");
      List.iteri
        (fun i b ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_bound prog ~lower fmt b)
        g;
      Format.fprintf fmt ")"
  in
  match groups with
  | [ g ] -> pp_group fmt g
  | _ ->
    Format.fprintf fmt "%s(" (if lower then "min" else "max");
    List.iteri
      (fun i g ->
        if i > 0 then Format.fprintf fmt ", ";
        pp_group fmt g)
      groups;
    Format.fprintf fmt ")"

(* the inverse mapping of one statement instance, e.g. "i=t1, j=t0-1" *)
let pp_mapping prog fmt inst =
  let st = prog.Scop.Program.stmts.(inst.stmt_id) in
  let np = Scop.Program.nparams prog in
  let d = Array.length st.Scop.Statement.iters in
  let parts = ref [] in
  for i = d - 1 downto 0 do
    let buf = Buffer.create 16 in
    let first = ref true in
    let term c name =
      if c <> 0 then begin
        if c > 0 && not !first then Buffer.add_string buf "+";
        if c = -1 then Buffer.add_string buf "-"
        else if c <> 1 then Buffer.add_string buf (string_of_int c ^ "*");
        Buffer.add_string buf name;
        first := false
      end
    in
    let konst = ref 0 in
    Array.iteri
      (fun k level ->
        let c = inst.hinv_num.(i).(k) in
        term c (Printf.sprintf "t%d" level);
        (* subtract the parametric shift g_k *)
        for p = 0 to np - 1 do
          term (-c * inst.g.(k).(p)) prog.Scop.Program.params.(p)
        done;
        konst := !konst - (c * inst.g.(k).(np)))
      inst.sel_levels;
    if !konst > 0 then Buffer.add_string buf (Printf.sprintf "+%d" !konst)
    else if !konst < 0 then Buffer.add_string buf (string_of_int !konst)
    else if !first then Buffer.add_string buf "0";
    let rhs =
      if inst.det = 1 then Buffer.contents buf
      else Printf.sprintf "(%s)/%d" (Buffer.contents buf) inst.det
    in
    parts := Printf.sprintf "%s=%s" st.Scop.Statement.iters.(i) rhs :: !parts
  done;
  Format.pp_print_string fmt (String.concat ", " !parts)

let rec pp_node prog indent fmt node =
  let pad = String.make indent ' ' in
  match node with
  | Seq nodes -> List.iter (pp_node prog indent fmt) nodes
  | Exec inst ->
    let st = prog.Scop.Program.stmts.(inst.stmt_id) in
    Format.fprintf fmt "%s%a;  /* %a */@," pad
      (Scop.Statement.pp ~params:prog.Scop.Program.params)
      st (pp_mapping prog) inst
  | Loop l ->
    let pragma =
      match l.par with
      | Parallel -> Printf.sprintf "%s#pragma omp parallel for\n" pad
      | Parallel_reduction ->
        Printf.sprintf
          "%s#pragma omp parallel for reduction  /* privatize + combine */\n"
          pad
      | Forward -> Printf.sprintf "%s/* pipelined (forward dep) */\n" pad
      | Sequential -> ""
    in
    Format.fprintf fmt "%sfor (t%d = %a; t%d <= %a; t%d++) {@,"
      (pragma ^ pad) l.level
      (pp_bound_groups prog ~lower:true)
      l.lb_groups l.level
      (pp_bound_groups prog ~lower:false)
      l.ub_groups l.level;
    pp_node prog (indent + 2) fmt l.body;
    Format.fprintf fmt "%s}@," pad

let pp prog fmt node =
  Format.fprintf fmt "@[<v>";
  pp_node prog 0 fmt node;
  Format.fprintf fmt "@]"
