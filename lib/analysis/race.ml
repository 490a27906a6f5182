open Deps

(* δ(z) = ϕ_dst(t) − ϕ_src(s) of one schedule row, as an affine form
   over the dependence space [s (d1); t (d2); params; 1]. Beta rows
   become constant forms, so the conflict system pins scalar dimensions
   exactly like loop dimensions — a dependence "live" at the loop's row
   must agree on every outer row of either kind. *)
let delta_vec (prog : Scop.Program.t) (sched : Pluto.Sched.t) (dep : Dep.t)
    row_idx =
  let np = Scop.Program.nparams prog in
  let d1 = Scop.Statement.depth prog.stmts.(dep.src) in
  let d2 = Scop.Statement.depth prog.stmts.(dep.dst) in
  let hs =
    Pluto.Sched.row_as_hyp ~depth:d1 ~np (List.nth sched.(dep.src) row_idx)
  in
  let ht =
    Pluto.Sched.row_as_hyp ~depth:d2 ~np (List.nth sched.(dep.dst) row_idx)
  in
  Pluto.Sched.phi_diff ~d1 ~d2 ~np hs ht

(* dep.poly ∧ params ≥ floor ∧ δ_k = 0 for every row k above [row_idx] *)
let conflict_base ~param_floor prog (sched : Pluto.Sched.t) (dep : Dep.t)
    row_idx =
  let np = Scop.Program.nparams prog in
  let d1 = Scop.Statement.depth prog.Scop.Program.stmts.(dep.src) in
  let d2 = Scop.Statement.depth prog.Scop.Program.stmts.(dep.dst) in
  let dim = d1 + d2 + np in
  let floor_cs =
    List.init np (fun p ->
        let c = Array.make (dim + 1) 0 in
        c.(d1 + d2 + p) <- 1;
        c.(dim) <- -param_floor;
        Poly.Constr.ge (Array.to_list c))
  in
  let pinned =
    List.init row_idx (fun k ->
        Poly.Constr.make Poly.Constr.Eq (delta_vec prog sched dep k))
  in
  Poly.Polyhedron.add_list dep.poly (floor_cs @ pinned)

(* δ_r ≥ 1 (resp. ≤ −1): shift the constant of the affine form *)
let at_least_one v =
  let v = Linalg.Vec.copy v in
  let n = Array.length v in
  v.(n - 1) <- Linalg.Q.sub v.(n - 1) Linalg.Q.one;
  Poly.Constr.make Poly.Constr.Ge v

(* [carried_witness ?param_floor prog sched dep ~row_idx] decides
   whether the dependence can connect two distinct iterations of the
   loop at schedule row [row_idx], with all outer schedule rows (Hyp and
   Beta alike) forced equal. Returns a witness point of the dependence
   polyhedron ([src iters; dst iters; params]) when one was recovered,
   [Some [||]] when the system is feasible but no witness was extracted
   within budget, [None] when provably conflict-free. *)
let carried_witness ?(param_floor = 2) prog sched dep ~row_idx =
  let base = conflict_base ~param_floor prog sched dep row_idx in
  let v = delta_vec prog sched dep row_idx in
  let probe sys =
    if Ilp.Bb.feasible sys then
      Some (Option.value (Ilp.Bb.integer_point sys) ~default:[||])
    else None
  in
  match probe (Poly.Polyhedron.add base (at_least_one v)) with
  | Some _ as w -> w
  | None -> probe (Poly.Polyhedron.add base (at_least_one (Linalg.Vec.neg v)))

(* row index of each loop level: positions of Hyp rows *)
let loop_rows (sched : Pluto.Sched.t) =
  let rec go i = function
    | [] -> []
    | Pluto.Sched.Hyp _ :: rest -> i :: go (i + 1) rest
    | Pluto.Sched.Beta _ :: rest -> go (i + 1) rest
  in
  go 0 sched.(0)

let pp_witness prog (dep : Dep.t) (w : int array) =
  if Array.length w = 0 then "(within budget, no witness extracted)"
  else begin
    let d1 = Scop.Statement.depth prog.Scop.Program.stmts.(dep.src) in
    let d2 = Scop.Statement.depth prog.Scop.Program.stmts.(dep.dst) in
    let slice off len =
      String.concat ","
        (List.init len (fun i -> string_of_int w.(off + i)))
    in
    Printf.sprintf "src=(%s) dst=(%s) params=(%s)" (slice 0 d1) (slice d1 d2)
      (slice (d1 + d2) (Array.length w - d1 - d2))
  end

let check ?(param_floor = 2) ?(facts = []) (prog : Scop.Program.t) deps sched
    ast =
  if Array.length sched = 0 then []
  else begin
    let rows_of_level = loop_rows sched in
    let true_deps = List.filter Dep.is_true deps in
    let findings = ref [] in
    let emit f = findings := f :: !findings in
    Codegen.Ast.iter_loops
      (fun (l : Codegen.Ast.loop) ->
        match List.nth_opt rows_of_level l.level with
        | None -> ()
        | Some row_idx ->
          let mem = Codegen.Ast.members l.body in
          let live =
            List.filter
              (fun (d : Dep.t) -> List.mem d.src mem && List.mem d.dst mem)
              true_deps
          in
          let conflicts =
            List.filter_map
              (fun d ->
                match
                  carried_witness ~param_floor prog sched d ~row_idx
                with
                | Some w -> Some (d, w)
                | None -> None)
              live
          in
          let emit_racy ((d : Dep.t), w) =
            emit
              (Finding.make
                 ~stmts:(List.sort_uniq compare [ d.src; d.dst ])
                 ~level:l.level ~dep:d
                 ~context:
                   [
                     ("row", string_of_int row_idx);
                     ("witness", pp_witness prog d w);
                   ]
                 Finding.Racy_parallel
                 (Printf.sprintf
                    "loop t%d is marked %s but carries a %s \
                     dependence %s -> %s"
                    l.level
                    (Pluto.Satisfy.loop_class_name l.par)
                    (Dep.kind_to_string d.kind)
                    prog.stmts.(d.src).Scop.Statement.name
                    prog.stmts.(d.dst).Scop.Statement.name))
          in
          (match (l.par, conflicts) with
          | Codegen.Ast.Parallel, _ :: _ -> List.iter emit_racy conflicts
          | Codegen.Ast.Parallel, [] -> ()
          | Codegen.Ast.Parallel_reduction, conflicts ->
            (* every carried conflict must be licensed by an
               independently re-derived reduction proof; anything else
               behind the mark is a race, proof or no mark *)
            let covered, uncovered =
              List.partition
                (fun ((d : Dep.t), _) ->
                  List.exists (fun f -> Reduction.covers f d) facts)
                conflicts
            in
            List.iter emit_racy uncovered;
            if uncovered = [] then begin
              Linalg.Counters.(incr reductions_certified);
              let ops =
                List.sort_uniq compare
                  (List.concat_map
                     (fun ((d : Dep.t), _) ->
                       List.filter_map
                         (fun (f : Reduction_info.t) ->
                           if Reduction.covers f d then
                             Some (Reduction_info.op_name f)
                           else None)
                         facts)
                     covered)
              in
              emit
                (Finding.make
                   ~stmts:(List.sort_uniq compare mem)
                   ~level:l.level
                   ~context:
                     [
                       ("row", string_of_int row_idx);
                       ( "covered-conflicts",
                         string_of_int (List.length covered) );
                       ("operators", String.concat "," ops);
                     ]
                   Finding.Reduction_certified
                   (Printf.sprintf
                      "loop t%d is race-free up to reduction reassociation \
                       (every carried dependence is a proven reduction \
                       self-dependence)"
                      l.level))
            end
          | (Codegen.Ast.Forward | Codegen.Ast.Sequential), [] ->
            emit
              (Finding.make
                 ~stmts:(List.sort_uniq compare mem)
                 ~level:l.level
                 ~context:
                   [
                     ("row", string_of_int row_idx);
                     ("mark", Pluto.Satisfy.loop_class_name l.par);
                     ("live dependences", string_of_int (List.length live));
                   ]
                 Finding.Lost_parallelism
                 (Printf.sprintf
                    "loop t%d is marked %s but is provably race-free"
                    l.level
                    (Pluto.Satisfy.loop_class_name l.par)))
          | (Codegen.Ast.Forward | Codegen.Ast.Sequential), _ :: _ -> ()))
      ast;
    List.rev !findings
  end
