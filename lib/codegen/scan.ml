open Linalg
open Poly

(* --- transformed domains ------------------------------------------------- *)

(* indices of Hyp rows within the schedule row list *)
let loop_row_indices sched =
  let rec go i = function
    | [] -> []
    | Pluto.Sched.Hyp _ :: rest -> i :: go (i + 1) rest
    | Pluto.Sched.Beta _ :: rest -> go (i + 1) rest
  in
  go 0 sched.(0)

(* The transformed domain of statement [s]: polyhedron over
   [y_0 .. y_(nloops-1); params]. *)
let transformed_domain (prog : Scop.Program.t) (sched : Pluto.Sched.t) id =
  let np = Scop.Program.nparams prog in
  let st = prog.stmts.(id) in
  let d = Scop.Statement.depth st in
  let rows =
    List.filter_map
      (function Pluto.Sched.Hyp h -> Some h | Pluto.Sched.Beta _ -> None)
      sched.(id)
  in
  let nl = List.length rows in
  (* combined space: [y (nl); p (np); x (d)] *)
  let dim = nl + np + d in
  let eqs =
    List.mapi
      (fun k (h : int array) ->
        (* y_k - (h_iter . x + h_param . p + h_const) = 0 *)
        let row = Array.make (dim + 1) 0 in
        row.(k) <- 1;
        for i = 0 to d - 1 do
          row.(nl + np + i) <- -h.(i)
        done;
        for p = 0 to np - 1 do
          row.(nl + p) <- -h.(d + p)
        done;
        row.(dim) <- -h.(d + np);
        Constr.eq (Array.to_list row))
      rows
  in
  let dom =
    Polyhedron.rename st.domain ~dim_to:dim (fun i ->
        if i < d then nl + np + i else nl + (i - d))
  in
  let combined = Polyhedron.add_list dom eqs in
  (* eliminate the original iterators *)
  Polyhedron.eliminate combined (List.init d (fun i -> nl + np + i))

(* bounds of loop variable [l] of statement [id], given its transformed
   domain: project onto [y_0 .. y_l; params], then split constraints on
   y_l into lower/upper bound records *)
let bounds_at td ~np ~nloops l =
  (* keep y_0..y_l and params; eliminate y_(l+1)..y_(nloops-1) *)
  let proj =
    Polyhedron.eliminate td (List.init (nloops - l - 1) (fun i -> l + 1 + i))
  in
  let lower, upper, _rest = Polyhedron.lower_upper_bounds proj l in
  let to_int q = Bigint.to_int (Q.num q) in
  let width = l + np + 1 in
  let make_bound ~lower:_ c =
    (* c: a*y_l + rest >= 0 over [y_0..y_l; p]; a <> 0 *)
    let a = to_int (Constr.coeff c l) in
    let rest i = to_int (Constr.coeff c i) in
    if a > 0 then begin
      (* y_l >= ceil(-rest / a) *)
      let num = Array.init width (fun i ->
          if i < l then -rest i
          else if i < l + np then -rest (i + 1)
          else -to_int (Constr.const c))
      in
      { Ast.num; den = a }
    end
    else begin
      (* a < 0: y_l <= floor(rest / -a) *)
      let num = Array.init width (fun i ->
          if i < l then rest i
          else if i < l + np then rest (i + 1)
          else to_int (Constr.const c))
      in
      { Ast.num; den = -a }
    end
  in
  let lbs = List.map (make_bound ~lower:true) lower in
  let ubs = List.map (make_bound ~lower:false) upper in
  (lbs, ubs)

(* --- instances ------------------------------------------------------------ *)

let make_instance (prog : Scop.Program.t) (sched : Pluto.Sched.t) id =
  let np = Scop.Program.nparams prog in
  let st = prog.stmts.(id) in
  let d = Scop.Statement.depth st in
  let rows =
    List.filter_map
      (function Pluto.Sched.Hyp h -> Some h | Pluto.Sched.Beta _ -> None)
      sched.(id)
  in
  let iter_part (h : int array) = Array.sub h 0 d in
  let param_part (h : int array) = Array.sub h d (np + 1) in
  let indexed = List.mapi (fun k h -> (k, h)) rows in
  let nonzero, zero =
    List.partition (fun (_, h) -> Array.exists (fun c -> c <> 0) (iter_part h)) indexed
  in
  if List.length nonzero <> d then
    Pluto.Diagnostics.fail ~phase:Codegen ~code:"codegen.rank"
      ~context:
        [
          ("statement", st.name);
          ("depth", string_of_int d);
          ("non-constant-rows", string_of_int (List.length nonzero));
        ]
      (Printf.sprintf "Scan: statement %s has %d non-constant rows for depth %d"
         st.name (List.length nonzero) d);
  let sel_levels = Array.of_list (List.map fst nonzero) in
  let hsel = Mat.of_ints (Array.of_list (List.map (fun (_, h) -> iter_part h) nonzero)) in
  let hinv =
    match Mat.inverse hsel with
    | Some m -> m
    | None ->
      Pluto.Diagnostics.fail ~phase:Codegen ~code:"codegen.singular"
        ~context:[ ("statement", st.name) ]
        (Printf.sprintf "Scan: singular transform for %s" st.name)
  in
  (* write hinv as integer matrix / det *)
  let det =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc q -> Bigint.lcm acc (Q.den q)) acc row)
      Bigint.one hinv
  in
  let hinv_num =
    Array.map
      (Array.map (fun q -> Bigint.to_int (Q.to_bigint (Q.mul q (Q.of_bigint det)))))
      hinv
  in
  {
    Ast.stmt_id = id;
    sel_levels;
    hinv_num;
    det = Bigint.to_int det;
    g = Array.of_list (List.map (fun (_, h) -> param_part h) nonzero);
    const_rows =
      Array.of_list (List.map (fun (k, h) -> (k, param_part h)) zero);
  }

(* --- tree construction ----------------------------------------------------- *)

let generate ~(prog : Scop.Program.t) ~(sched : Pluto.Sched.t) ~deps =
  Counters.time "codegen" @@ fun () ->
  let np = Scop.Program.nparams prog in
  let n = Array.length prog.stmts in
  if n = 0 then Ast.Seq []
  else begin
    let nrows = Pluto.Sched.num_rows sched in
    let loop_rows = loop_row_indices sched in
    let nloops = List.length loop_rows in
    let td = Array.init n (fun id -> transformed_domain prog sched id) in
    let inst = Array.init n (fun id -> make_instance prog sched id) in
    let true_deps = List.filter Deps.Dep.is_true deps in
    (* map row index -> loop level *)
    let level_of_row = Hashtbl.create 8 in
    List.iteri (fun lvl row -> Hashtbl.add level_of_row row lvl) loop_rows;
    let rec build stmts row_idx =
      if row_idx >= nrows then
        Ast.Seq (List.map (fun id -> Ast.Exec inst.(id)) stmts)
      else begin
        match List.nth sched.(List.hd stmts) row_idx with
        | Pluto.Sched.Beta _ ->
          (* group by beta value, keep ascending order *)
          let value id =
            match List.nth sched.(id) row_idx with
            | Pluto.Sched.Beta b -> b
            | Pluto.Sched.Hyp _ -> assert false
          in
          let groups = Hashtbl.create 8 in
          List.iter
            (fun id ->
              let b = value id in
              Hashtbl.replace groups b
                (id :: Option.value (Hashtbl.find_opt groups b) ~default:[]))
            stmts;
          let keys = List.sort_uniq compare (List.map value stmts) in
          let children =
            List.map
              (fun b -> build (List.rev (Hashtbl.find groups b)) (row_idx + 1))
              keys
          in
          (match children with [ one ] -> one | many -> Ast.Seq many)
        | Pluto.Sched.Hyp _ ->
          let level = Hashtbl.find level_of_row row_idx in
          let lb_groups, ub_groups =
            List.split
              (List.map (fun id -> bounds_at td.(id) ~np ~nloops level) stmts)
          in
          let par =
            Pluto.Satisfy.row_class prog true_deps sched ~level:row_idx
              ~members:stmts
          in
          if Obs.Trace.on () then
            Obs.Trace.instant ~cat:"codegen" "codegen.loop"
              ~args:
                [
                  ("level", Obs.Json.Int level);
                  ("class", Obs.Json.Str (Pluto.Satisfy.loop_class_name par));
                  ("stmts", Obs.Json.Int (List.length stmts));
                ];
          Ast.Loop
            {
              level;
              lb_groups;
              ub_groups;
              group_stmts = stmts;
              par;
              body = build stmts (row_idx + 1);
            }
      end
    in
    build (List.init n Fun.id) 0
  end

let of_result (res : Pluto.Scheduler.result) =
  generate ~prog:res.prog ~sched:res.sched ~deps:res.true_deps

let identity_schedule (prog : Scop.Program.t) =
  let np = Scop.Program.nparams prog in
  let dmax = Scop.Program.max_depth prog in
  Array.map
    (fun (st : Scop.Statement.t) ->
      let d = Scop.Statement.depth st in
      let rows = ref [] in
      for level = 0 to dmax do
        (* beta row *)
        let b = if level <= d then st.beta.(level) else 0 in
        rows := Pluto.Sched.Beta b :: !rows;
        (* hyperplane row (except after the last beta) *)
        if level < dmax then begin
          let h = Array.make (d + np + 1) 0 in
          if level < d then h.(level) <- 1;
          rows := Pluto.Sched.Hyp h :: !rows
        end
      done;
      List.rev !rows)
    prog.stmts

let original prog ~deps = generate ~prog ~sched:(identity_schedule prog) ~deps
