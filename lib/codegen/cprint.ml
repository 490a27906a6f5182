open Scop

let buf_add = Buffer.add_string

(* --- small C expression helpers ---------------------------------------- *)

(* nested binary min/max over a non-empty list *)
let rec fold_minmax op = function
  | [] -> invalid_arg "Cprint: empty bound list"
  | [ x ] -> x
  | x :: rest -> Printf.sprintf "%s(%s, %s)" op x (fold_minmax op rest)

let bounds_to_c prog ~lower groups =
  let dedup l = List.sort_uniq compare l in
  let groups =
    dedup
      (List.map
         (fun g -> dedup (List.map (Ast.bound_to_string prog ~lower) g))
         groups)
  in
  let inner_op = if lower then "maxd" else "mind" in
  let outer_op = if lower then "mind" else "maxd" in
  fold_minmax outer_op (List.map (fold_minmax inner_op) groups)

(* original-iterator recovery code for one instance; returns
   (declarations, guard condition) *)
let instance_to_c (prog : Program.t) (inst : Ast.instance) =
  let st = prog.stmts.(inst.stmt_id) in
  let np = Program.nparams prog in
  let d = Array.length st.Statement.iters in
  let decls = Buffer.create 64 in
  let guards = ref [] in
  (* constant rows: t_level == param expr *)
  Array.iter
    (fun (level, row) ->
      let b = Buffer.create 8 in
      let first = ref true in
      for p = 0 to np - 1 do
        if row.(p) <> 0 then begin
          if not !first then buf_add b "+";
          if row.(p) <> 1 then buf_add b (string_of_int row.(p) ^ "*");
          buf_add b prog.params.(p);
          first := false
        end
      done;
      if !first then buf_add b (string_of_int row.(np))
      else if row.(np) > 0 then buf_add b (Printf.sprintf "+%d" row.(np))
      else if row.(np) < 0 then buf_add b (string_of_int row.(np));
      guards := Printf.sprintf "t%d == (%s)" level (Buffer.contents b) :: !guards)
    inst.const_rows;
  (* numerators nom_i = sum_k hinv[i][k] * (t_selk - g_k) *)
  for i = 0 to d - 1 do
    let b = Buffer.create 32 in
    let first = ref true in
    Array.iteri
      (fun k level ->
        let c = inst.hinv_num.(i).(k) in
        if c <> 0 then begin
          if not !first then buf_add b " + ";
          buf_add b (Printf.sprintf "%d*(t%d" c level);
          for p = 0 to np - 1 do
            if inst.g.(k).(p) <> 0 then
              buf_add b (Printf.sprintf " - %d*%s" inst.g.(k).(p) prog.params.(p))
          done;
          if inst.g.(k).(np) <> 0 then
            buf_add b (Printf.sprintf " - %d" inst.g.(k).(np));
          buf_add b ")";
          first := false
        end)
      inst.sel_levels;
    if !first then buf_add b "0";
    Buffer.add_string decls
      (Printf.sprintf "int nom_%s = %s; " st.Statement.iters.(i)
         (Buffer.contents b));
    if inst.det <> 1 then
      guards :=
        Printf.sprintf "nom_%s %% %d == 0" st.Statement.iters.(i) inst.det
        :: !guards
  done;
  for i = 0 to d - 1 do
    let it = st.Statement.iters.(i) in
    if inst.det = 1 then
      Buffer.add_string decls (Printf.sprintf "int %s = nom_%s; " it it)
    else
      Buffer.add_string decls
        (Printf.sprintf "int %s = nom_%s / %d; " it it inst.det)
  done;
  (* domain constraints *)
  List.iter
    (fun c ->
      let row =
        Array.map
          (fun q -> Linalg.Bigint.to_int (Linalg.Q.num q))
          (Poly.Constr.coeffs c)
      in
      let name k = if k < d then st.Statement.iters.(k) else prog.params.(k - d) in
      let rel =
        match Poly.Constr.kind c with Poly.Constr.Eq -> "==" | Poly.Constr.Ge -> ">="
      in
      guards := Printf.sprintf "%s %s 0" (Access.affine name row) rel :: !guards)
    (Poly.Polyhedron.constraints st.Statement.domain);
  let guard =
    match !guards with [] -> "1" | gs -> String.concat " && " (List.rev gs)
  in
  (Buffer.contents decls, guard)

let stmt_to_c (prog : Program.t) (st : Statement.t) =
  Format.asprintf "%a = %a;"
    (Access.pp ~iter_names:st.Statement.iters ~param_names:prog.params)
    st.Statement.write
    (Expr.pp ~iter_names:st.Statement.iters ~param_names:prog.params)
    st.Statement.rhs

(* just the loop nest (no declarations/main), as it appears inside the
   kernel function *)
let body (prog : Program.t) ast =
  let b = Buffer.create 1024 in
  let rec go indent node =
    let pad = String.make indent ' ' in
    match node with
    | Ast.Seq nodes -> List.iter (go indent) nodes
    | Ast.Exec inst ->
      let st = prog.stmts.(inst.Ast.stmt_id) in
      let decls, guard = instance_to_c prog inst in
      buf_add b (Printf.sprintf "%s{ %s\n" pad decls);
      buf_add b (Printf.sprintf "%s  if (%s) { %s } }\n" pad guard
           (stmt_to_c prog st))
    | Ast.Loop l ->
      (match l.Ast.par with
      | Ast.Parallel -> buf_add b (pad ^ "#pragma omp parallel for\n")
      | Ast.Parallel_reduction ->
        buf_add b
          (pad
         ^ "/* reduction loop: privatize accumulators per thread, \
            combine after the barrier */\n");
        buf_add b (pad ^ "#pragma omp parallel for /* reduction */\n")
      | Ast.Forward -> buf_add b (pad ^ "/* pipelined: forward dependence */\n")
      | Ast.Sequential -> ());
      buf_add b
        (Printf.sprintf "%sfor (int t%d = %s; t%d <= %s; t%d++) {\n" pad
           l.Ast.level
           (bounds_to_c prog ~lower:true l.Ast.lb_groups)
           l.Ast.level
           (bounds_to_c prog ~lower:false l.Ast.ub_groups)
           l.Ast.level);
      go (indent + 2) l.Ast.body;
      buf_add b (pad ^ "}\n")
  in
  go 0 ast;
  Buffer.contents b

let program ~name (prog : Program.t) ast =
  let b = Buffer.create 4096 in
  let params = prog.default_params in
  buf_add b (Printf.sprintf "/* %s - generated by wisefuse */\n" name);
  buf_add b "#include <stdio.h>\n#include <math.h>\n\n";
  buf_add b "#define ceild(n, d) (((n) > 0) ? ((n) + (d) - 1) / (d) : -((-(n)) / (d)))\n";
  buf_add b "#define floord(n, d) (((n) >= 0) ? (n) / (d) : -((-(n) + (d) - 1) / (d)))\n";
  buf_add b "#define mind(a, b) ((a) < (b) ? (a) : (b))\n";
  buf_add b "#define maxd(a, b) ((a) > (b) ? (a) : (b))\n";
  (* statement expressions print min/max in function-call form *)
  buf_add b "#define min(a, b) fmin(a, b)\n";
  buf_add b "#define max(a, b) fmax(a, b)\n\n";
  Array.iteri
    (fun p pname ->
      buf_add b (Printf.sprintf "#define %s %d\n" pname params.(p)))
    prog.params;
  buf_add b "\n";
  (* array declarations at concrete extents *)
  List.iter
    (fun (decl : Program.array_decl) ->
      let ext = Program.array_extent decl ~params in
      buf_add b (Printf.sprintf "static double %s" decl.array_name);
      Array.iter (fun e -> buf_add b (Printf.sprintf "[%d]" e)) ext;
      buf_add b ";\n")
    prog.arrays;
  (* deterministic initialization *)
  buf_add b "\nstatic void init(void) {\n";
  List.iteri
    (fun ai (decl : Program.array_decl) ->
      let ext = Program.array_extent decl ~params in
      let idx = Array.mapi (fun d _ -> Printf.sprintf "q%d" d) ext in
      Array.iteri
        (fun d e ->
          buf_add b
            (Printf.sprintf "%sfor (int q%d = 0; q%d < %d; q%d++)\n"
               (String.make (2 + (2 * d)) ' ')
               d d e d))
        ext;
      (* simple LCG-style pattern over the flat offset and array id *)
      let offset =
        snd
          (Array.fold_left
             (fun (d, acc) _ ->
               if d = 0 then (1, "q0")
               else (d + 1, Printf.sprintf "(%s)*%d+q%d" acc ext.(d) d))
             (0, "") ext)
      in
      buf_add b
        (Printf.sprintf
           "%s%s%s = 0.25 + (double)((((%s) + %d) * 2654435761u) & 0xffff) / 131072.0;\n"
           (String.make (2 + (2 * Array.length ext)) ' ')
           decl.array_name
           (String.concat ""
              (Array.to_list (Array.map (fun q -> "[" ^ q ^ "]") idx)))
           offset (1000 * ai)))
    prog.arrays;
  buf_add b "}\n\n";
  buf_add b "static void kernel(void) {\n";
  buf_add b (body prog ast);
  buf_add b "}\n\n";
  buf_add b "int main(void) {\n  init();\n  kernel();\n  double sum = 0.0;\n";
  List.iter
    (fun (decl : Program.array_decl) ->
      let ext = Program.array_extent decl ~params in
      let total = Array.fold_left ( * ) 1 ext in
      buf_add b
        (Printf.sprintf
           "  for (int q = 0; q < %d; q++) sum += ((double*)%s)[q];\n" total
           decl.array_name))
    prog.arrays;
  buf_add b "  printf(\"checksum: %.10e\\n\", sum);\n  return 0;\n}\n";
  Buffer.contents b
