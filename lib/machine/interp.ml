open Scop

type array_info = {
  data : float array;
  extents : int array;
  base : int; (* global element offset *)
}

type memory = { tbl : (string, array_info) Hashtbl.t }

let default_init name flat =
  (* deterministic, array-dependent, bounded values *)
  let h = Hashtbl.hash (name, flat) land 0xffff in
  0.25 +. (float_of_int h /. 131072.0)

let init_memory ?(init = default_init) (prog : Program.t) ~params =
  let tbl = Hashtbl.create 16 in
  let base = ref 0 in
  List.iter
    (fun (decl : Program.array_decl) ->
      let extents = Program.array_extent decl ~params in
      let size = Array.fold_left ( * ) 1 extents in
      if size <= 0 then
        invalid_arg ("Interp: non-positive extent for " ^ decl.array_name);
      let data = Array.init size (fun i -> init decl.array_name i) in
      Hashtbl.replace tbl decl.array_name { data; extents; base = !base };
      base := !base + size)
    prog.arrays;
  { tbl }

let find mem name =
  match Hashtbl.find_opt mem.tbl name with
  | Some i -> i
  | None -> raise Not_found

let array_data mem name = (find mem name).data

type access_kind = Read | Write

let flat_index info (idx : int array) =
  let nd = Array.length info.extents in
  if Array.length idx <> nd then invalid_arg "Interp: arity mismatch";
  let acc = ref 0 in
  for k = 0 to nd - 1 do
    if idx.(k) < 0 || idx.(k) >= info.extents.(k) then
      invalid_arg
        (Printf.sprintf "Interp: index %d out of [0, %d) at dim %d" idx.(k)
           info.extents.(k) k);
    acc := (!acc * info.extents.(k)) + idx.(k)
  done;
  !acc

let nop_access (_ : access_kind) (_ : int) = ()
let nop_stmt (_ : int) = ()

let instance_runner ?(on_access = nop_access) ?(on_stmt = nop_stmt)
    (prog : Program.t) mem ~params =
  fun (inst : Codegen.Ast.instance) ~y ->
    match Codegen.Ast.instance_iters inst ~y ~params with
    | None -> ()
    | Some iters ->
      let st = prog.stmts.(inst.stmt_id) in
      if Poly.Polyhedron.contains_int st.domain (Array.append iters params)
      then begin
        on_stmt inst.stmt_id;
        let read (a : Access.t) =
          let info = find mem a.array in
          let flat = flat_index info (Access.eval a ~iters ~params) in
          on_access Read ((info.base + flat) * 8);
          info.data.(flat)
        in
        let value = Expr.eval st.rhs ~read in
        let winfo = find mem st.write.array in
        let wflat = flat_index winfo (Access.eval st.write ~iters ~params) in
        on_access Write ((winfo.base + wflat) * 8);
        winfo.data.(wflat) <- value
      end

let run ?on_access ?on_stmt (prog : Program.t) ast mem ~params =
  let exec_instance = instance_runner ?on_access ?on_stmt prog mem ~params in
  (* y grows as we enter loops; levels are assigned in nesting order *)
  let y = Array.make 64 0 in
  let rec go node =
    match node with
    | Codegen.Ast.Seq nodes -> List.iter go nodes
    | Codegen.Ast.Exec inst -> exec_instance inst ~y
    | Codegen.Ast.Loop l ->
      let outer = Array.sub y 0 l.level in
      let lb, ub = Codegen.Ast.loop_range l ~outer ~params in
      for v = lb to ub do
        y.(l.level) <- v;
        go l.body
      done
  in
  go ast

let run_original ?on_access ?on_stmt prog mem ~params =
  let deps = [] in
  let ast = Codegen.Scan.original prog ~deps in
  run ?on_access ?on_stmt prog ast mem ~params

let differ va vb = Float.abs (va -. vb) > 1e-9 *. (1.0 +. Float.abs va +. Float.abs vb)

let first_diff m1 m2 =
  let result = ref None in
  Hashtbl.iter
    (fun name (info : array_info) ->
      if !result = None then begin
        match Hashtbl.find_opt m2.tbl name with
        | None -> result := Some (Printf.sprintf "array %s missing" name)
        | Some info2 ->
          Array.iteri
            (fun i va ->
              if !result = None then begin
                let vb = info2.data.(i) in
                if differ va vb then
                  result :=
                    Some
                      (Printf.sprintf "%s[%d]: %.12g vs %.12g" name i va vb)
              end)
            info.data
      end)
    m1.tbl;
  !result
