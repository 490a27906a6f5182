open Deps

type nest = { stmts : int list; depth : int; parallel : bool }

type result = {
  prog : Scop.Program.t;
  deps : Dep.t list;
  nests : nest list;
  sched : Pluto.Sched.t;
  ast : Codegen.Ast.node;
}

let stmt (prog : Scop.Program.t) id = prog.stmts.(id)

(* statements grouped by outermost loop, in program order *)
let original_nests (prog : Scop.Program.t) =
  let nests = ref [] and current = ref [] and current_loop = ref None in
  Array.iter
    (fun (s : Scop.Statement.t) ->
      let outer = if Array.length s.loop_ids > 0 then Some s.loop_ids.(0) else None in
      match (!current_loop, outer) with
      | Some a, Some b when a = b -> current := s.id :: !current
      | _ ->
        if !current <> [] then nests := List.rev !current :: !nests;
        current := [ s.id ];
        current_loop := outer)
    prog.stmts;
  if !current <> [] then nests := List.rev !current :: !nests;
  List.rev !nests

(* a (possibly already-merged) nest has a fusable shape when all its
   statements sit at the same depth with the same iterator names and
   identical iteration domains; imperfect nests (statements at
   different depths, e.g. wupwise) are excluded *)
let fusable_shape prog ids =
  match ids with
  | [] -> false
  | first :: rest ->
    let sf = stmt prog first in
    List.for_all
      (fun id ->
        let s = stmt prog id in
        s.Scop.Statement.iters = sf.Scop.Statement.iters
        && Poly.Polyhedron.equal s.Scop.Statement.domain sf.Scop.Statement.domain)
      rest

let nest_depth prog ids =
  List.fold_left (fun m id -> max m (Scop.Statement.depth (stmt prog id))) 0 ids

(* syntactic conformability: same depth, same iterator names in the
   same positions, identical iteration domains (a traditional compiler
   fuses only loops it can line up textually; tce's permuted loop
   orders fail here) *)
let conformable prog a b =
  fusable_shape prog a && fusable_shape prog b
  &&
  match (a, b) with
  | ia :: _, ib :: _ ->
    let sa = stmt prog ia and sb = stmt prog ib in
    sa.Scop.Statement.iters = sb.Scop.Statement.iters
    && Poly.Polyhedron.equal sa.Scop.Statement.domain sb.Scop.Statement.domain
  | _ -> false

(* profitability: pairwise fusion in the Ding-Kennedy tradition is
   reuse-driven - a traditional compiler does not fuse nests that share
   no data (fusion without reuse only adds register pressure) *)
let arrays_of prog ids =
  List.concat_map
    (fun id ->
      List.map
        (fun (a : Scop.Access.t) -> a.Scop.Access.array)
        (Scop.Statement.accesses (stmt prog id)))
    ids
  |> List.sort_uniq compare

let profitable prog a b =
  let aa = arrays_of prog a and ab = arrays_of prog b in
  List.exists (fun x -> List.mem x ab) aa

(* the 2D+1-style schedule for a given nest assignment:
   [nest_of id] gives the fused-nest index, [inner_pos id] the
   statement's textual position at the innermost level of its nest
   (None = keep the original beta values: unfused, possibly imperfect
   nest) *)
let build_sched (prog : Scop.Program.t) ~nest_of ~inner_pos =
  let np = Scop.Program.nparams prog in
  let dmax = Scop.Program.max_depth prog in
  Array.map
    (fun (s : Scop.Statement.t) ->
      let d = Scop.Statement.depth s in
      let rows = ref [ Pluto.Sched.Beta (nest_of s.id) ] in
      for level = 1 to dmax do
        let h = Array.make (d + np + 1) 0 in
        if level - 1 < d then h.(level - 1) <- 1;
        rows := Pluto.Sched.Hyp h :: !rows;
        let b =
          match inner_pos s.id with
          | Some pos -> if level = dmax then pos else 0
          | None -> if level <= d then s.beta.(level) else 0
        in
        rows := Pluto.Sched.Beta b :: !rows
      done;
      List.rev !rows)
    prog.stmts

let sched_for_nests prog nests ~fused =
  let n = Array.length prog.Scop.Program.stmts in
  let nest_of = Array.make n 0 in
  let inner = Array.make n None in
  List.iteri
    (fun idx ids ->
      List.iteri
        (fun pos id ->
          nest_of.(id) <- idx;
          if List.mem idx fused then inner.(id) <- Some pos)
        ids)
    nests;
  build_sched prog ~nest_of:(fun id -> nest_of.(id))
    ~inner_pos:(fun id -> inner.(id))

let outer_hyp_level (prog : Scop.Program.t) = ignore prog; 1
(* rows are [Beta; Hyp; Beta; Hyp; ...]: the outer hyperplane is row 1 *)

let nest_outer_parallel prog deps sched ids =
  let true_deps = List.filter Dep.is_true deps in
  match
    Pluto.Satisfy.row_class prog true_deps sched ~level:(outer_hyp_level prog)
      ~members:ids
  with
  | Pluto.Satisfy.Parallel -> true
  | Pluto.Satisfy.Parallel_reduction
  | Pluto.Satisfy.Forward | Pluto.Satisfy.Sequential ->
    (* icc's heuristics do not do reduction privatization here *)
    false

(* legality restricted to the dependences a candidate fusion could
   affect: only statements of the two merged nests change schedule *)
let legal ?touching prog deps sched =
  let relevant (d : Dep.t) =
    Dep.is_true d
    &&
    match touching with
    | None -> true
    | Some ids -> List.mem d.src ids || List.mem d.dst ids
  in
  match Pluto.Satisfy.check_legal prog (List.filter relevant deps) sched with
  | Ok () -> true
  | Error _ -> false

let rectangular prog ids =
  List.for_all
    (fun id ->
      let s = stmt prog id in
      let d = Scop.Statement.depth s in
      List.for_all
        (fun c ->
          let nonzero = ref 0 in
          for i = 0 to d - 1 do
            if not (Linalg.Q.is_zero (Poly.Constr.coeff c i)) then incr nonzero
          done;
          !nonzero <= 1)
        (Poly.Polyhedron.constraints s.Scop.Statement.domain))
    ids

(* inner-loop reduction: a self flow dependence carried by a non-outer
   loop (x[i] += ... over j) - the model's stand-in for icc preferring
   to vectorize such nests rather than parallelize them *)
let has_inner_reduction deps ids =
  List.exists
    (fun (d : Dep.t) ->
      d.kind = Dep.Flow && d.src = d.dst && List.mem d.src ids
      && match d.level with Dep.Carried l -> l >= 1 | Dep.Independent -> false)
    deps

let run ?param_floor (prog : Scop.Program.t) =
  let deps = Dep.analyze ?param_floor prog in
  let nests0 = original_nests prog in
  (* pairwise fusion scan *)
  let rec scan acc fused_idx nests =
    match nests with
    | a :: b :: rest ->
      let try_fuse =
        conformable prog a b
        && profitable prog a b
        &&
        (* candidate: a and b merged, everything else unchanged *)
        let cand_nests = List.rev acc @ [ a @ b ] @ rest in
        let merged_idx = List.length acc in
        let sched =
          sched_for_nests prog cand_nests ~fused:(merged_idx :: fused_idx)
        in
        legal ~touching:(a @ b) prog deps sched
        &&
        (* parallelism preservation: if both nests are outer-parallel
           on their own, the merged nest must be too *)
        let solo =
          let solo_sched = sched_for_nests prog (List.rev acc @ [ a; b ] @ rest) ~fused:fused_idx in
          nest_outer_parallel prog deps solo_sched a
          && nest_outer_parallel prog deps solo_sched b
        in
        (not solo) || nest_outer_parallel prog deps sched (a @ b)
      in
      if try_fuse then
        (* keep scanning with the merged nest in front (chain fusion) *)
        scan acc (List.length acc :: fused_idx) ((a @ b) :: rest)
      else scan (a :: acc) fused_idx (b :: rest)
    | [ a ] -> (List.rev (a :: acc), fused_idx)
    | [] -> (List.rev acc, fused_idx)
  in
  let nests, fused_idx = scan [] [] nests0 in
  let sched = sched_for_nests prog nests ~fused:fused_idx in
  (match Pluto.Satisfy.check_legal prog (List.filter Dep.is_true deps) sched with
  | Ok () -> ()
  | Error d ->
    Pluto.Diagnostics.fail ~phase:Verification ~code:"icc.illegal"
      ~context:
        [
          ("src", Printf.sprintf "S%d" d.src);
          ("dst", Printf.sprintf "S%d" d.dst);
          ("kind", Dep.kind_to_string d.kind);
        ]
      (Format.asprintf "Icc_model: illegal schedule over %a" Dep.pp d));
  let nest_infos =
    List.map
      (fun ids ->
        let parallel =
          rectangular prog ids
          && nest_outer_parallel prog deps sched ids
          && not (has_inner_reduction deps ids)
        in
        { stmts = ids; depth = nest_depth prog ids; parallel })
      nests
  in
  (* AST with icc's parallelization decisions *)
  let ast = Codegen.Scan.generate ~prog ~sched ~deps in
  let parallel_of_stmt = Array.make (Array.length prog.stmts) true in
  List.iter
    (fun ni -> List.iter (fun id -> parallel_of_stmt.(id) <- ni.parallel) ni.stmts)
    nest_infos;
  let rec stmts_of = function
    | Codegen.Ast.Exec i -> [ i.Codegen.Ast.stmt_id ]
    | Codegen.Ast.Seq l -> List.concat_map stmts_of l
    | Codegen.Ast.Loop l -> stmts_of l.Codegen.Ast.body
  in
  let rec demote ~inside node =
    match node with
    | Codegen.Ast.Exec _ -> node
    | Codegen.Ast.Seq l -> Codegen.Ast.Seq (List.map (demote ~inside) l)
    | Codegen.Ast.Loop l ->
      let body = demote ~inside:true l.Codegen.Ast.body in
      if inside then Codegen.Ast.Loop { l with body }
      else begin
        let members = stmts_of (Codegen.Ast.Loop l) in
        let par =
          if List.for_all (fun id -> parallel_of_stmt.(id)) members then l.par
          else Codegen.Ast.Sequential
        in
        Codegen.Ast.Loop { l with par; body }
      end
  in
  let ast = demote ~inside:false ast in
  { prog; deps; nests = nest_infos; sched; ast }
