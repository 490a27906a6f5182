open Linalg
open Deps

type cut_strategy =
  | Cut_all_sccs
  | Cut_between_dims
  | Cut_minimal
  | Cut_groups of int list

type config = {
  name : string;
  order_sccs : Scop.Program.t -> Ddg.t -> int array -> int list;
  initial_cut : cut_strategy option;
  fallback_cut : cut_strategy;
  outer_parallel : bool;
}

type result = {
  prog : Scop.Program.t;
  config_name : string;
  engine : Engine.kind; (* the per-level solver that actually ran *)
  all_deps : Dep.t list;
  true_deps : Dep.t list;
  ddg : Ddg.t;
  scc_of : int array;
  scc_order : int list;
  sched : Sched.t;
  outer_partition : int array;
}

(* SCC ids are already a topological numbering of the condensation
   (Kosaraju's DFS); the identity permutation is therefore a valid
   pre-fusion order and is what the stock configurations use. *)
let topological_order _prog _ddg scc_of =
  List.init (Ddg.scc_count scc_of) Fun.id

let scc_dim (prog : Scop.Program.t) members =
  List.fold_left
    (fun m id -> max m (Scop.Statement.depth prog.stmts.(id)))
    0 members

(* --- ILP coefficient bounds (Pluto-style) ------------------------------ *)

let c_iter_max = 4
let c_const_max = 6
let u_max = 30
let w_max = 30

(* --- mutable scheduling state ------------------------------------------ *)

type state = {
  prog : Scop.Program.t;
  np : int;
  cfg : config;
  engine : Engine.kind; (* resolved per-level solver (see Engine.resolve) *)
  budget : Budget.t option;
      (* caps the hyperplane search (per-level ILP + δ-range LPs); dep
         analysis and verification run unbudgeted so a degraded run can
         still be checked *)
  true_deps : Dep.t array;
  scc_of : int array;
  scc_pos : int array; (* scc id -> position in pre-fusion order *)
  stmt_order : int array; (* position in execution order -> stmt id *)
  (* per-dep cached Farkas constraint systems in the global ILP space *)
  legality : Poly.Constr.t list array;
  bounding : Poly.Constr.t list array;
  var_offset : int array; (* stmt id -> first column of its coeff block *)
  nv : int; (* total ILP variables *)
  rows_rev : Sched.row list array; (* per stmt, innermost first *)
  satisfied : bool array; (* per true dep *)
  mutable part : int array; (* current (outer) partition per stmt *)
  hyp_rows : int array list array; (* found iterator parts per stmt, for rank *)
  rank : int array; (* per stmt *)
  mutable accepted_hyp_rows : int;
  (* incremental constraint store: the per-level ILP is assembled from
     cached segments instead of being rebuilt from scratch on every
     level and cut retry *)
  bounds : Poly.Constr.t list; (* coefficient box: level-invariant *)
  stmt_seg : Poly.Constr.t list array; (* per-stmt rows, valid at [stmt_seg_rank] *)
  stmt_seg_rank : int array; (* rank when [stmt_seg] was built; -1 = never *)
  mutable dep_seg : (int * Poly.Constr.t list) option;
      (* active legality+bounding rows, keyed by #satisfied deps *)
}

let stmt_depth (prog : Scop.Program.t) id = Scop.Statement.depth prog.stmts.(id)

(* --- decision provenance (lib/obs) -------------------------------------

   Every fusion-relevant decision the engine takes — per-level ILP
   solves, cuts and their justifications, Algorithm 2 triggers,
   verification outcomes — is emitted as a typed instant event when the
   trace sink is on. All emission sites are guarded by [Obs.Trace.on]
   so the argument lists are never even allocated on the default null
   sink. *)

let strategy_name = function
  | Cut_all_sccs -> "all-sccs"
  | Cut_between_dims -> "between-dims"
  | Cut_minimal -> "minimal"
  | Cut_groups _ -> "groups"

let partition_string part =
  String.concat "," (List.map string_of_int (Array.to_list part))

let ranks_string st =
  String.concat "," (List.map string_of_int (Array.to_list st.rank))

let dep_args st (d : Dep.t) =
  [
    ("src", Obs.Json.Str st.prog.stmts.(d.src).Scop.Statement.name);
    ("dst", Obs.Json.Str st.prog.stmts.(d.dst).Scop.Statement.name);
    ("src-stmt", Obs.Json.Int d.src);
    ("dst-stmt", Obs.Json.Int d.dst);
    ("src-scc", Obs.Json.Int st.scc_of.(d.src));
    ("dst-scc", Obs.Json.Int st.scc_of.(d.dst));
    ("kind", Obs.Json.Str (Dep.kind_to_string d.kind));
  ]

let cut_event st ~name ~strategy ?requested ?violating () =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"fuse" name
      ~args:
        ([
           ("config", Obs.Json.Str st.cfg.name);
           ("level", Obs.Json.Int st.accepted_hyp_rows);
           ("strategy", Obs.Json.Str strategy);
         ]
        @ (match requested with
          | Some r when r <> strategy -> [ ("requested", Obs.Json.Str r) ]
          | _ -> [])
        @ (match violating with
          | Some d -> dep_args st d
          | None -> [])
        @ [ ("partition", Obs.Json.Str (partition_string st.part)) ])

(* Rename a Farkas-local constraint system into the global ILP space.
   Global layout: [u(np); w; per stmt: c_1..c_d, c0]. *)
let rename_local_to_global ~np ~var_offset ~nv (dep : Dep.t) ~d1 ~d2 cons_poly =
  let f i =
    if i < d1 then var_offset.(dep.src) + i
    else if i = d1 then var_offset.(dep.src) + d1 (* src const; block size d1+1 *)
    else if i < d1 + 1 + d2 then var_offset.(dep.dst) + (i - d1 - 1)
    else if i = d1 + 1 + d2 then var_offset.(dep.dst) + d2
    else if i < d1 + d2 + 2 + np then i - (d1 + d2 + 2) (* u_p -> column p *)
    else np (* w *)
  in
  Poly.Polyhedron.constraints (Poly.Polyhedron.rename cons_poly ~dim_to:nv f)

(* Coefficient box: 0 <= u_p <= u_max, 0 <= w <= w_max, iterator
   coefficients <= c_iter_max, constants <= c_const_max (lower bounds
   come from the scheduler's nonneg ILP mode). Independent of the
   scheduling level, so built once per state. *)
let upper_bound_cons ~np ~nv ~var_offset (prog : Scop.Program.t) =
  let bound v ub =
    let row = Array.make (nv + 1) 0 in
    row.(v) <- -1;
    row.(nv) <- ub;
    Poly.Constr.ge (Array.to_list row)
  in
  let cons = ref [] in
  for p = 0 to np - 1 do
    cons := bound p u_max :: !cons
  done;
  cons := bound np w_max :: !cons;
  Array.iteri
    (fun id _ ->
      let d = stmt_depth prog id in
      for i = 0 to d - 1 do
        cons := bound (var_offset.(id) + i) c_iter_max :: !cons
      done;
      cons := bound (var_offset.(id) + d) c_const_max :: !cons)
    prog.stmts;
  !cons

let make_state ?budget ~engine ~memo cfg (prog : Scop.Program.t) all_deps =
  let np = Scop.Program.nparams prog in
  let n = Array.length prog.stmts in
  let ddg = Ddg.build prog all_deps in
  let scc_of = Ddg.scc_kosaraju ddg in
  let scc_order = cfg.order_sccs prog ddg scc_of in
  let nscc = Ddg.scc_count scc_of in
  if List.sort compare scc_order <> List.init nscc Fun.id then
    invalid_arg "Scheduler: order_sccs must be a permutation of SCC ids";
  let scc_pos = Array.make nscc 0 in
  List.iteri (fun pos id -> scc_pos.(id) <- pos) scc_order;
  (* execution order: by (scc position, statement id) *)
  let stmt_order =
    Array.of_list
      (List.sort
         (fun a b ->
           compare (scc_pos.(scc_of.(a)), a) (scc_pos.(scc_of.(b)), b))
         (List.init n Fun.id))
  in
  let var_offset = Array.make n 0 in
  let off = ref (np + 1) in
  Array.iteri
    (fun id _ ->
      var_offset.(id) <- !off;
      off := !off + stmt_depth prog id + 1)
    prog.stmts;
  let nv = !off in
  let true_deps = Array.of_list (List.filter Dep.is_true all_deps) in
  let legality =
    Array.map
      (fun (d : Dep.t) ->
        let d1 = stmt_depth prog d.src and d2 = stmt_depth prog d.dst in
        rename_local_to_global ~np ~var_offset ~nv d ~d1 ~d2
          (Farkas.legality_space ~memo ~d1 ~d2 ~np d.poly))
      true_deps
  in
  let bounding =
    Array.map
      (fun (d : Dep.t) ->
        let d1 = stmt_depth prog d.src and d2 = stmt_depth prog d.dst in
        rename_local_to_global ~np ~var_offset ~nv d ~d1 ~d2
          (Farkas.bounding_space ~memo ~d1 ~d2 ~np d.poly))
      true_deps
  in
  ( {
      prog;
      np;
      cfg;
      engine;
      budget;
      true_deps;
      scc_of;
      scc_pos;
      stmt_order;
      legality;
      bounding;
      var_offset;
      nv;
      rows_rev = Array.make n [];
      (* reduction-tagged self-dependences are pre-satisfied: reduction
         legality lets the chain reassociate, so they never contribute
         legality or bounding rows *)
      satisfied = Array.map (fun (d : Dep.t) -> d.tag = Dep.Reduction) true_deps;
      part = Array.make n 0;
      hyp_rows = Array.make n [];
      rank = Array.make n 0;
      accepted_hyp_rows = 0;
      bounds = upper_bound_cons ~np ~nv ~var_offset prog;
      stmt_seg = Array.make n [];
      stmt_seg_rank = Array.make n (-1);
      dep_seg = None;
    },
    ddg,
    scc_order )

(* --- cuts ---------------------------------------------------------------- *)

(* Assign dense partition ids from per-statement keys, scanning in
   execution order so ids are execution-ordered. *)
let densify st (key : int -> int * int) =
  let n = Array.length st.prog.stmts in
  let out = Array.make n 0 in
  let next = ref (-1) in
  let last = ref None in
  Array.iter
    (fun id ->
      let k = key id in
      (match !last with
      | Some k' when k' = k -> ()
      | _ -> incr next);
      last := Some (key id);
      out.(id) <- !next)
    st.stmt_order;
  out

let beta_of_cut st strategy ~violating =
  match strategy with
  | Cut_all_sccs -> densify st (fun id -> (st.part.(id), st.scc_pos.(st.scc_of.(id))))
  | Cut_between_dims ->
    (* walk SCCs in order; a new group starts when the current partition
       changes or the dimensionality changes *)
    let dim_of_scc = Hashtbl.create 16 in
    Array.iteri
      (fun id scc ->
        let d = stmt_depth st.prog id in
        let cur = Option.value (Hashtbl.find_opt dim_of_scc scc) ~default:0 in
        Hashtbl.replace dim_of_scc scc (max cur d))
      st.scc_of;
    let group_of_scc = Hashtbl.create 16 in
    let group = ref (-1) in
    let last = ref None in
    Array.iter
      (fun id ->
        let scc = st.scc_of.(id) in
        if not (Hashtbl.mem group_of_scc scc) then begin
          let k = (st.part.(id), Hashtbl.find dim_of_scc scc) in
          (match !last with Some k' when k' = k -> () | _ -> incr group);
          last := Some k;
          Hashtbl.add group_of_scc scc !group
        end)
      st.stmt_order;
    densify st (fun id -> (0, Hashtbl.find group_of_scc st.scc_of.(id)))
  | Cut_minimal -> (
    match violating with
    | None -> invalid_arg "Scheduler: minimal cut needs a violating dependence"
    | Some (d : Dep.t) ->
      let boundary = st.scc_pos.(st.scc_of.(d.dst)) in
      densify st (fun id ->
          (st.part.(id), if st.scc_pos.(st.scc_of.(id)) < boundary then 0 else 1)))
  | Cut_groups groups ->
    let arr = Array.of_list groups in
    densify st (fun id -> (st.part.(id), arr.(st.scc_pos.(st.scc_of.(id)))))

(* mark dependences satisfied by a beta row; error on a backward cut *)
let mark_beta_satisfaction st beta =
  Array.iteri
    (fun i (d : Dep.t) ->
      if not st.satisfied.(i) then begin
        let bs = beta.(d.src) and bd = beta.(d.dst) in
        if bd > bs then st.satisfied.(i) <- true
        else if bd < bs then
          Diagnostics.fail ~phase:Scheduling ~code:"sched.backward-cut"
            ~context:
              [
                ("config", st.cfg.name);
                ("src", Printf.sprintf "S%d" d.src);
                ("dst", Printf.sprintf "S%d" d.dst);
              ]
            (Printf.sprintf
               "Scheduler(%s): backward cut over dependence S%d->S%d"
               st.cfg.name d.src d.dst)
      end)
    st.true_deps

let apply_beta st beta =
  Array.iteri
    (fun id rows -> st.rows_rev.(id) <- Sched.Beta beta.(id) :: rows)
    st.rows_rev;
  mark_beta_satisfaction st beta;
  st.part <- Array.copy beta

(* has the cut refined anything? *)
let is_refinement st beta = beta <> st.part

(* --- the per-level ILP --------------------------------------------------- *)

(* Rows constraining one statement's coefficient block at its current
   rank. Recomputed only when the rank changes (see [stmt_cons]). *)
let stmt_seg_for st id =
  let d = stmt_depth st.prog id in
  let o = st.var_offset.(id) in
  let cons = ref [] in
  if st.rank.(id) >= d then begin
    (* finished: force the whole block to zero *)
    for i = 0 to d do
      let row = Array.make (st.nv + 1) 0 in
      row.(o + i) <- 1;
      cons := Poly.Constr.eq (Array.to_list row) :: !cons
    done
  end
  else begin
    (* non-trivial: sum of iterator coefficients >= 1 *)
    let row = Array.make (st.nv + 1) 0 in
    for i = 0 to d - 1 do
      row.(o + i) <- 1
    done;
    row.(st.nv) <- -1;
    cons := Poly.Constr.ge (Array.to_list row) :: !cons;
    (* linear independence from the rows already found: every basis
       vector of the orthogonal complement must have a non-negative
       projection, and their sum a positive one (Pluto heuristic) *)
    if st.hyp_rows.(id) <> [] then begin
      let h = Mat.of_ints (Array.of_list (List.rev st.hyp_rows.(id))) in
      let comp = Mat.orthogonal_complement h in
      (* orient each basis vector so its entry sum is >= 0 *)
      let comp =
        List.map
          (fun v ->
            let s = Array.fold_left Q.add Q.zero v in
            if Q.sign s < 0 then Vec.neg v else v)
          comp
      in
      let sum_row = Array.make (st.nv + 1) 0 in
      List.iter
        (fun v ->
          let row = Array.make (st.nv + 1) 0 in
          Array.iteri
            (fun i q ->
              let c = Bigint.to_int (Q.num q) in
              row.(o + i) <- c;
              sum_row.(o + i) <- sum_row.(o + i) + c)
            v;
          cons := Poly.Constr.ge (Array.to_list row) :: !cons)
        comp;
      sum_row.(st.nv) <- -1;
      cons := Poly.Constr.ge (Array.to_list sum_row) :: !cons
    end
  end;
  !cons

(* Per-statement rows depend only on the statement's rank (the
   orthogonal-complement rows are a function of [hyp_rows], which grows
   exactly when the rank does), so each segment — including its
   orthogonal-complement computation — is reused across cut retries at
   the same level, and the "block forced to zero" segment of finished
   statements is reused for the rest of the run. *)
let stmt_cons st =
  let cons = ref [] in
  Array.iteri
    (fun id _ ->
      if st.stmt_seg_rank.(id) <> st.rank.(id) then begin
        st.stmt_seg.(id) <- stmt_seg_for st id;
        st.stmt_seg_rank.(id) <- st.rank.(id)
      end;
      cons := st.stmt_seg.(id) @ !cons)
    st.prog.stmts;
  !cons

(* Legality + bounding rows of the dependences [satisfied] leaves
   active. *)
let active_dep_rows st satisfied =
  let cons = ref [] in
  Array.iteri
    (fun i _ ->
      if not satisfied.(i) then cons := st.legality.(i) @ st.bounding.(i) @ !cons)
    st.true_deps;
  !cons

(* The active rows of the current state. Satisfied flags only ever flip
   to [true], so the concatenation is keyed by how many dependences are
   satisfied: levels and cut retries that satisfy nothing new reuse the
   previous row list unchanged. *)
let dep_cons st =
  let nsat = Array.fold_left (fun n s -> if s then n + 1 else n) 0 st.satisfied in
  match st.dep_seg with
  | Some (k, cached) when k = nsat -> cached
  | _ ->
    let cons = active_dep_rows st st.satisfied in
    st.dep_seg <- Some (nsat, cons);
    cons

(* The per-level problem both engines share: the polyhedron over the
   global coefficient space and the lexicographic objective tower. *)
let level_problem st =
  let cons = st.bounds @ stmt_cons st @ dep_cons st in
  let p = Poly.Polyhedron.make st.nv cons in
  let obj mask =
    let v = Vec.zero (st.nv + 1) in
    List.iter (fun i -> v.(i) <- Q.one) mask;
    v
  in
  let sum_u = obj (List.init st.np Fun.id) in
  let just_w = obj [ st.np ] in
  let sum_c_iter =
    obj
      (List.concat
         (List.mapi
            (fun id _ ->
              List.init (stmt_depth st.prog id) (fun i -> st.var_offset.(id) + i))
            (Array.to_list st.prog.stmts)))
  in
  let sum_c0 =
    obj
      (List.mapi
         (fun id _ -> st.var_offset.(id) + stmt_depth st.prog id)
         (Array.to_list st.prog.stmts))
  in
  (* first tie-break: spatial locality - penalize hyperplanes built
     from iterators that index the last (stride-1, row-major) subscript
     of some access, so those iterators sink to the innermost levels *)
  let stride =
    let v = Vec.zero (st.nv + 1) in
    Array.iteri
      (fun id (s : Scop.Statement.t) ->
        let d = stmt_depth st.prog id in
        List.iter
          (fun (a : Scop.Access.t) ->
            let last = a.Scop.Access.idx.(Scop.Access.arity a - 1) in
            for i = 0 to d - 1 do
              if last.(i) <> 0 then v.(st.var_offset.(id) + i) <- Q.one
            done)
          (Scop.Statement.accesses s))
      st.prog.stmts;
    v
  in
  (* second tie-break: prefer earlier original iterators at outer
     levels, so untied permutations follow program order *)
  let iter_order =
    let v = Vec.zero (st.nv + 1) in
    Array.iteri
      (fun id _ ->
        for i = 0 to stmt_depth st.prog id - 1 do
          v.(st.var_offset.(id) + i) <- Q.of_int i
        done)
      st.prog.stmts;
    v
  in
  (p, [ sum_u; just_w; sum_c_iter; stride; iter_order; sum_c0 ])

(* How a level's solve ended. *)
type level_outcome =
  | Hyperplane of int array
  | Infeasible_relaxation
      (* lp-dfp: the level's LP relaxation has no point, or its solve
         ran out of budget *)
  | Dead_end
      (* no integral hyperplane: an ILP dead end, or a relaxed vertex
         that neither clustering nor the ILP fallback could round *)

(* The original engine: branch-and-bound integer lexmin. *)
let solve_level_ilp st p objs =
  match Ilp.Bb.lexmin ~nonneg:true ?budget:st.budget p objs with
  | None -> Dead_end
  | Some (_, x) -> Hyperplane x

let row_of_solution st x id =
  let d = stmt_depth st.prog id in
  let o = st.var_offset.(id) in
  let row = Array.make (d + st.np + 1) 0 in
  for i = 0 to d - 1 do
    row.(i) <- x.(o + i)
  done;
  row.(d + st.np) <- x.(o + d);
  row

(* delta range of dependence [d] for candidate rows. The max re-solves
   the min's final basis with the negated objective (primal-feasible
   warm restart): only the optimal values are consumed, so a warm
   re-solve is safe here. *)
let dep_range st (d : Dep.t) src_row dst_row =
  let d1 = stmt_depth st.prog d.src and d2 = stmt_depth st.prog d.dst in
  let objv = Sched.phi_diff ~d1 ~d2 ~np:st.np src_row dst_row in
  let min_res, warm = Ilp.Lp.minimize_warm ?budget:st.budget d.poly objv in
  (* [Exhausted] (budget ran out mid-range) maps to [None] = unknown:
     satisfaction marking and outer-violation detection both treat
     unknown conservatively (dep stays unsatisfied / counts as a
     violation), so exhaustion can only delay fusion, never unsoundly
     enable it. *)
  let dmin =
    match min_res with
    | Ilp.Lp.Optimal (v, _) -> Some v
    | Ilp.Lp.Unbounded | Ilp.Lp.Exhausted -> None
    | Ilp.Lp.Infeasible -> Some Q.zero (* empty dependence: vacuous *)
  in
  let max_res =
    match warm with
    | Some w -> fst (Ilp.Lp.reoptimize ?budget:st.budget w ~add:[] ~obj:(Vec.neg objv))
    | None -> (
      (* min was infeasible or unbounded; only the infeasible case can
         still answer, mirroring [Lp.maximize] *)
      match Ilp.Lp.maximize ?budget:st.budget d.poly objv with
      | Ilp.Lp.Optimal (v, _) -> Ilp.Lp.Optimal (Q.neg v, [||])
      | r -> r)
  in
  let dmax =
    match max_res with
    | Ilp.Lp.Optimal (v, _) -> Some (Q.neg v) (* min of -objv *)
    | Ilp.Lp.Unbounded | Ilp.Lp.Exhausted -> None
    | Ilp.Lp.Infeasible -> Some Q.zero
  in
  (dmin, dmax)

(* --- the lp-dfp engine (LP relaxation + clustering) ---------------------

   The decoupled path of Acharya & Bondhugula's pluto-lp-dfp: solve the
   per-level problem as a pure LP (no branching), then recover an
   integral hyperplane by scaling each dependence-connected statement
   cluster of the rational vertex uniformly. Legality survives the
   scaling because (a) no active dependence links two clusters, so each
   dependence's difference form phi_dst - phi_src is scaled by one
   positive factor, and (b) the recovered rows are re-certified against
   the dependence polyhedra before acceptance — any level that fails
   certification falls back to the ILP engine. *)

(* Pure-LP lexicographic minimum over the same objective tower as the
   ILP engine: each stage minimizes one objective, fixes its optimal
   value with an equality row, and warm-restarts the next stage from
   the previous basis (mirroring [Bb.lexmin], minus the trees and the
   final cold integer search). Returns the last stage's vertex. *)
let lp_lexmin st p objs =
  let dim = Poly.Polyhedron.dim p in
  (* only the first stage reads [p]: every later one re-solves the
     previous stage's snapshot with its fixing row added (an optimal
     solve always snapshots) *)
  let rec go from last = function
    | [] -> last
    | obj :: rest -> (
      Counters.(incr lp_relax_solves);
      let result, warm =
        match from with
        | Some (w, cs) -> Ilp.Lp.reoptimize ?budget:st.budget w ~add:cs ~obj
        | None -> Ilp.Lp.minimize_warm ~nonneg:true ?budget:st.budget p obj
      in
      match (result, warm) with
      | Ilp.Lp.Optimal (v, x), Some w ->
        (* fix this objective: obj . x + c = v *)
        let fix = Vec.copy obj in
        fix.(dim) <- Q.sub fix.(dim) v;
        let fixc = Poly.Constr.make Poly.Constr.Eq fix in
        go (Some (w, [ fixc ])) (Some x) rest
      | Ilp.Lp.(Optimal _ | Infeasible | Unbounded | Exhausted), _ -> None)
  in
  go None None objs

(* Dependence-connected statement clusters: union-find over the
   endpoints of the still-active true dependences, members in
   increasing statement id, clusters by smallest member. *)
let active_clusters st =
  let n = Array.length st.prog.stmts in
  let parent = Array.init n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  Array.iteri
    (fun i (d : Dep.t) ->
      if not st.satisfied.(i) then begin
        let a = find d.src and b = find d.dst in
        if a <> b then parent.(max a b) <- min a b
      end)
    st.true_deps;
  let members = Array.make n [] in
  for id = n - 1 downto 0 do
    let r = find id in
    members.(r) <- id :: members.(r)
  done;
  List.filter (fun l -> l <> []) (Array.to_list members)

(* Recovered rows with entries beyond this are treated as a clustering
   failure (ILP fallback) rather than embedded into schedules. *)
let max_scaled_coeff = 1024

(* Scale one cluster of the rational vertex [xq] into [xi]: multiply
   the members' coefficient blocks by the lcm of their denominators,
   then divide by the gcd of the scaled entries — the smallest uniform
   integral multiple of the cluster (the per-statement rows stay valid:
   entries are nonnegative, so a nonzero block keeps sum >= 1, and
   positive scaling preserves the orthogonal-complement projections).
   Returns the scaling factor, or [None] past [max_scaled_coeff]. *)
let scale_cluster st xq xi members =
  let slots =
    List.concat_map
      (fun id ->
        let d = stmt_depth st.prog id in
        List.init (d + 1) (fun i -> st.var_offset.(id) + i))
      members
  in
  let lcm_den =
    List.fold_left (fun l s -> Bigint.lcm l (Q.den xq.(s))) Bigint.one slots
  in
  let scaled =
    List.map
      (fun s -> (s, Q.to_bigint (Q.mul xq.(s) (Q.of_bigint lcm_den))))
      slots
  in
  let g = List.fold_left (fun g (_, b) -> Bigint.gcd g b) Bigint.zero scaled in
  let g = if Bigint.sign g = 0 then Bigint.one else g in
  let ok =
    List.for_all
      (fun (s, b) ->
        match Bigint.to_int_opt (Bigint.div b g) with
        | Some c when abs c <= max_scaled_coeff ->
          xi.(s) <- c;
          true
        | _ -> false)
      scaled
  in
  if ok then Some (lcm_den, g) else None

(* Certify a recovered candidate: evaluate every still-active true
   dependence's cached Farkas legality rows at the integral point.
   Fourier-Motzkin elimination is exact over the rationals, so those
   rows are precisely the weak-legality face (delta >= 0 over the
   dependence polyhedron) the per-level problem encodes — a point
   satisfying them is legal for that dependence. Evaluation keeps the
   re-validation ground-truth at dot-product cost, instead of the
   LP-per-dependence delta-range probe. *)
let certify_candidate st x =
  let v = Array.map Q.of_int x in
  let ok = ref true in
  Array.iteri
    (fun i _ ->
      if !ok && not st.satisfied.(i) then
        ok := List.for_all (fun c -> Poly.Constr.holds c v) st.legality.(i))
    st.true_deps;
  !ok

let cluster_event st ~members ~scale ~ok =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"sched" "cluster.match"
      ~args:
        [
          ("config", Obs.Json.Str st.cfg.name);
          ("level", Obs.Json.Int st.accepted_hyp_rows);
          ( "stmts",
            Obs.Json.Str (String.concat "," (List.map string_of_int members))
          );
          ("size", Obs.Json.Int (List.length members));
          ( "scale",
            Obs.Json.Str
              (match scale with
              | Some (l, g) ->
                Printf.sprintf "%s/%s" (Bigint.to_string l) (Bigint.to_string g)
              | None -> "overflow") );
          ("ok", Obs.Json.Bool ok);
        ]

let solve_level_dfp st p objs =
  let p0 = Counters.(get lp_pivots) and dp0 = Counters.(get dual_pivots) in
  let relax = lp_lexmin st p objs in
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"sched" "lp.relax"
      ~args:
        [
          ("config", Obs.Json.Str st.cfg.name);
          ("level", Obs.Json.Int st.accepted_hyp_rows);
          ( "outcome",
            Obs.Json.Str (match relax with Some _ -> "vertex" | None -> "infeasible")
          );
          ("pivots", Obs.Json.Int (Counters.(get lp_pivots) - p0));
          ("dual-pivots", Obs.Json.Int (Counters.(get dual_pivots) - dp0));
        ];
  match relax with
  | None ->
    (* the relaxation found nothing, so the integer program is no
       better: let the cut machinery (or the budget diagnostics) take
       over *)
    Infeasible_relaxation
  | Some xq ->
    let xi = Array.make st.nv 0 in
    let scaled =
      List.for_all
        (fun members ->
          Counters.(incr cluster_rounds);
          let scale = scale_cluster st xq xi members in
          cluster_event st ~members ~scale ~ok:(scale <> None);
          scale <> None)
        (active_clusters st)
    in
    if scaled && certify_candidate st xi then Hyperplane xi
    else begin
      (* clustering could not certify this level: hand it to the exact
         engine *)
      Counters.(incr dfp_fallbacks);
      solve_level_ilp st p objs
    end

(* --- per-level dispatch ------------------------------------------------- *)

let solve_level_raw st =
  let p, objs = level_problem st in
  match st.engine with
  | Engine.Ilp -> solve_level_ilp st p objs
  | Engine.Lp_dfp -> solve_level_dfp st p objs

(* Per-level solve, wrapped in a [sched.level] span carrying the solver
   effort deltas (pivots, branch-and-bound nodes, warm vs cold
   re-solves) and the outcome. The dfp path additionally emits its own
   [lp.relax] / [cluster.match] instants from inside the span. *)
let solve_level st =
  if not (Obs.Trace.on ()) then solve_level_raw st
  else begin
    let active =
      Array.fold_left (fun n s -> if s then n else n + 1) 0 st.satisfied
    in
    Obs.Trace.begin_span ~cat:"sched" "sched.level"
      ~args:
        [
          ("config", Obs.Json.Str st.cfg.name);
          ("engine", Obs.Json.Str (Engine.kind_name st.engine));
          ("level", Obs.Json.Int st.accepted_hyp_rows);
          ("ranks", Obs.Json.Str (ranks_string st));
          ("active-deps", Obs.Json.Int active);
        ];
    let p0 = Counters.(get lp_pivots) and dp0 = Counters.(get dual_pivots) in
    let n0 = Counters.(get bb_nodes) in
    let w0 = Counters.(get warm_starts) and f0 = Counters.(get warm_fallbacks) in
    Fun.protect
      ~finally:(fun () -> Obs.Trace.end_span "sched.level")
      (fun () ->
        let res = solve_level_raw st in
        if st.engine = Engine.Ilp then
          Obs.Trace.instant ~cat:"sched" "ilp.level-solve"
            ~args:
              [
                ("config", Obs.Json.Str st.cfg.name);
                ("level", Obs.Json.Int st.accepted_hyp_rows);
                ( "outcome",
                  Obs.Json.Str
                    (match res with
                    | Hyperplane _ -> "hyperplane"
                    | Infeasible_relaxation | Dead_end -> "infeasible") );
                ("pivots", Obs.Json.Int (Counters.(get lp_pivots) - p0));
                ("dual-pivots", Obs.Json.Int (Counters.(get dual_pivots) - dp0));
                ("bb-nodes", Obs.Json.Int (Counters.(get bb_nodes) - n0));
                ("warm-solves", Obs.Json.Int (Counters.(get warm_starts) - w0));
                ("cold-fallbacks", Obs.Json.Int (Counters.(get warm_fallbacks) - f0));
              ];
        res)
  end

let count_satisfied st =
  Array.fold_left (fun n s -> if s then n + 1 else n) 0 st.satisfied

let accept_row st x =
  let nsat0 = if Obs.Trace.on () then count_satisfied st else 0 in
  Array.iteri
    (fun id _ ->
      let row = row_of_solution st x id in
      st.rows_rev.(id) <- Sched.Hyp row :: st.rows_rev.(id);
      if st.rank.(id) < stmt_depth st.prog id then begin
        st.hyp_rows.(id) <- Array.sub row 0 (stmt_depth st.prog id) :: st.hyp_rows.(id);
        st.rank.(id) <- st.rank.(id) + 1
      end)
    st.prog.stmts;
  st.accepted_hyp_rows <- st.accepted_hyp_rows + 1;
  (* mark strong satisfaction *)
  Array.iteri
    (fun i (d : Dep.t) ->
      if not st.satisfied.(i) then begin
        let src_row = row_of_solution st x d.src in
        let dst_row = row_of_solution st x d.dst in
        match fst (dep_range st d src_row dst_row) with
        | Some v when Q.compare v Q.one >= 0 -> st.satisfied.(i) <- true
        | _ -> ()
      end)
    st.true_deps;
  if Obs.Trace.on () then
    let nsat = count_satisfied st in
    Obs.Trace.instant ~cat:"sched" "sched.row-accepted"
      ~args:
        [
          ("config", Obs.Json.Str st.cfg.name);
          ("level", Obs.Json.Int (st.accepted_hyp_rows - 1));
          ("newly-satisfied", Obs.Json.Int (nsat - nsat0));
          ("satisfied", Obs.Json.Int nsat);
          ("total-deps", Obs.Json.Int (Array.length st.true_deps));
        ]

(* Algorithm 2 helper: dependences that would make the (first) outer
   loop a forward-dependence loop, and that a cut can fix. *)
let outer_violations st x =
  let viol = ref [] in
  Array.iteri
    (fun i (d : Dep.t) ->
      if
        (not st.satisfied.(i))
        && st.part.(d.src) = st.part.(d.dst)
        && st.scc_of.(d.src) <> st.scc_of.(d.dst)
      then begin
        let src_row = row_of_solution st x d.src in
        let dst_row = row_of_solution st x d.dst in
        match snd (dep_range st d src_row dst_row) with
        | Some v when Q.sign v <= 0 -> ()
        | _ -> viol := d :: !viol
      end)
    st.true_deps;
  List.rev !viol

(* pick a dependence justifying a minimal fallback cut: an unsatisfied
   inter-SCC dependence inside one partition, with the earliest
   destination SCC *)
let pick_violating st =
  let best = ref None in
  Array.iteri
    (fun i (d : Dep.t) ->
      if
        (not st.satisfied.(i))
        && st.part.(d.src) = st.part.(d.dst)
        && st.scc_of.(d.src) <> st.scc_of.(d.dst)
      then begin
        match !best with
        | Some (b : Dep.t) when st.scc_pos.(st.scc_of.(b.dst)) <= st.scc_pos.(st.scc_of.(d.dst)) -> ()
        | _ -> best := Some d
      end)
    st.true_deps;
  !best

(* The fallback cut [try_cut] would take from the current state: the
   strategy that refines, its justifying dependence and its beta row. *)
let next_cut st strategy =
  let violating = pick_violating st in
  let attempt strat =
    match strat with
    | Cut_minimal when violating = None -> None
    | _ ->
      let beta = beta_of_cut st strat ~violating in
      if is_refinement st beta then
        Some (strat, (if strat = Cut_minimal then violating else None), beta)
      else None
  in
  (* ensure progress: escalate through strategies if the preferred one
     does not refine the current partitioning *)
  let chain =
    match strategy with
    | Cut_minimal -> [ Cut_minimal; Cut_between_dims; Cut_all_sccs ]
    | Cut_between_dims -> [ Cut_between_dims; Cut_all_sccs ]
    | Cut_all_sccs -> [ Cut_all_sccs ]
    | Cut_groups _ as g -> [ g; Cut_minimal; Cut_between_dims; Cut_all_sccs ]
  in
  List.find_map attempt chain

let try_cut st strategy =
  match next_cut st strategy with
  | None -> false
  | Some (s, violating, beta) ->
    apply_beta st beta;
    cut_event st ~name:"cut.fallback" ~strategy:(strategy_name s)
      ~requested:(strategy_name strategy) ?violating ();
    true

(* --- lp-dfp dead ends: bisecting the fallback-cut chain -----------------

   A cut only marks dependences satisfied, and [dep_cons] then drops
   their legality and bounding rows; [bounds] and [stmt_cons] depend on
   ranks alone, which a cut does not change. Along the chain of
   fallback cuts, each state's LP relaxation is therefore the previous
   one minus some rows, so feasibility switches at most once, from "no"
   to "yes". When a level's relaxation is infeasible, the first
   feasible state of the chain is found by bisection, in
   ceil(log2(m+1)) probes for an m-cut chain, instead of one level
   solve per cut. *)

(* The satisfied sets after each cut of the chain [try_cut] would walk
   from the current state, without committing a cut or emitting an
   event: the chain stops where [try_cut] would find no cut or a cut
   would run backward. The state is restored on return. *)
let cut_chain st strategy =
  let part = st.part and satisfied = Array.copy st.satisfied in
  let rec go states =
    match next_cut st strategy with
    | None -> states
    | Some (_, _, beta) -> (
      match mark_beta_satisfaction st beta with
      | () ->
        st.part <- beta;
        go (Array.copy st.satisfied :: states)
      | exception Diagnostics.Error _ -> states)
  in
  let states = Array.of_list (List.rev (go [])) in
  st.part <- part;
  Array.blit satisfied 0 st.satisfied 0 (Array.length satisfied);
  states

(* Is the level's LP relaxation feasible once [satisfied] holds? Phase
   1 only (a zero objective); budgeted like the level solve, and an
   exhausted probe counts as infeasible. The rows bypass [dep_cons], so
   its cache, keyed by the current state's count, stays valid. *)
let relaxation_feasible st satisfied =
  Counters.(incr lp_relax_solves);
  let p =
    Poly.Polyhedron.make st.nv
      (st.bounds @ stmt_cons st @ active_dep_rows st satisfied)
  in
  match Ilp.Lp.minimize ~nonneg:true ?budget:st.budget p (Vec.zero (st.nv + 1)) with
  | Ilp.Lp.Optimal _ -> true
  | Ilp.Lp.(Infeasible | Unbounded | Exhausted) -> false

(* The number of fallback cuts up to the chain's first state with a
   feasible relaxation. When no state has one, it is one more than the
   chain's length: the last of them is the cut [try_cut] cannot take,
   so committing them ends the search as the scan would. The current
   state's relaxation is known to be infeasible. *)
let bisect_cuts st =
  let chain = cut_chain st st.cfg.fallback_cut in
  let m = Array.length chain in
  let probes = ref 0 in
  (* the first feasible state in [lo, hi); state m + 1 stands for none *)
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      incr probes;
      if relaxation_feasible st chain.(mid - 1) then search lo mid
      else search (mid + 1) hi
    end
  in
  let landing = search 1 (m + 1) in
  if m > 0 && Obs.Trace.on () then
    Obs.Trace.instant ~cat:"sched" "sched.cut-bisect"
      ~args:
        [
          ("config", Obs.Json.Str st.cfg.name);
          ("level", Obs.Json.Int st.accepted_hyp_rows);
          ("chain", Obs.Json.Int m);
          ("probes", Obs.Json.Int !probes);
          ("landing", Obs.Json.Int (min landing m));
          ("feasible", Obs.Json.Bool (landing <= m));
        ];
  landing

(* final textual ordering inside each partition *)
let final_beta st =
  let n = Array.length st.prog.stmts in
  let beta = Array.make n 0 in
  let counters = Hashtbl.create 16 in
  Array.iter
    (fun id ->
      let p = st.part.(id) in
      let c = Option.value (Hashtbl.find_opt counters p) ~default:0 in
      beta.(id) <- c;
      Hashtbl.replace counters p (c + 1))
    st.stmt_order;
  beta

(* Did the caller's budget trip? Decides whether a failed search is a
   [Budget] diagnostic (degradable: retry with a cheaper strategy) or a
   genuine [Scheduling] one. *)
let budget_tripped st =
  match st.budget with None -> false | Some b -> Budget.exhausted b

let fail_search st code msg =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"sched" "sched.dead-end"
      ~args:
        [
          ("config", Obs.Json.Str st.cfg.name);
          ( "code",
            Obs.Json.Str
              (if budget_tripped st then "sched.budget-exhausted" else code) );
          ("level", Obs.Json.Int st.accepted_hyp_rows);
        ];
  if budget_tripped st then
    Diagnostics.fail ~phase:Budget ~code:"sched.budget-exhausted"
      ~context:
        [
          ("config", st.cfg.name);
          ( "budget",
            match st.budget with
            | Some b -> Format.asprintf "%a" Budget.pp b
            | None -> "none" );
        ]
      (Printf.sprintf "Scheduler(%s): solver budget exhausted" st.cfg.name)
  else
    Diagnostics.fail ~phase:Scheduling ~code
      ~context:[ ("config", st.cfg.name) ]
      msg

(* Always-on exit verification: structural completeness plus exact
   legality of every schedule leaving the scheduler, on any path.
   Unbudgeted on purpose — a schedule found under a 1-pivot budget must
   still be checkable. *)
let verify_result (res : result) =
  let verify_event name args =
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"verify" name
        ~args:(("config", Obs.Json.Str res.config_name) :: args)
  in
  Counters.time "verification" (fun () ->
      (match Satisfy.check_complete res.prog res.sched with
      | Ok () -> ()
      | Error d ->
        verify_event "verify.fail" [ ("code", Obs.Json.Str d.Diagnostics.code) ];
        raise (Diagnostics.Error d));
      match Satisfy.check_legal res.prog res.true_deps res.sched with
      | Ok () ->
        verify_event "verify.ok"
          [ ("deps-checked", Obs.Json.Int (List.length res.true_deps)) ]
      | Error (d : Dep.t) ->
        verify_event "verify.fail"
          [
            ("code", Obs.Json.Str "verify.illegal");
            ("src", Obs.Json.Str res.prog.stmts.(d.src).Scop.Statement.name);
            ("dst", Obs.Json.Str res.prog.stmts.(d.dst).Scop.Statement.name);
            ("kind", Obs.Json.Str (Dep.kind_to_string d.kind));
          ];
        Diagnostics.fail ~phase:Verification ~code:"verify.illegal"
          ~context:
            [
              ("config", res.config_name);
              ("src", Printf.sprintf "S%d" d.src);
              ("dst", Printf.sprintf "S%d" d.dst);
              ("kind", Dep.kind_to_string d.kind);
            ]
          (Printf.sprintf
             "Scheduler(%s): schedule violates dependence S%d->S%d"
             res.config_name d.src d.dst));
  res

let run_with_deps_budgeted ?budget ?(engine = Engine.Auto) ~memo cfg
    (prog : Scop.Program.t) all_deps =
  let nstmts = Array.length prog.stmts in
  let resolved = Engine.resolve engine ~nstmts in
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"sched" "engine.select"
      ~args:
        [
          ("config", Obs.Json.Str cfg.name);
          ("requested", Obs.Json.Str (Engine.choice_name engine));
          ("engine", Obs.Json.Str (Engine.kind_name resolved));
          ("stmts", Obs.Json.Int nstmts);
          ( "reason",
            Obs.Json.Str
              (match engine with
              | Engine.Fixed _ -> "fixed"
              | Engine.Auto ->
                Printf.sprintf "auto: %d stmts %s threshold %d" nstmts
                  (if resolved = Engine.Lp_dfp then ">=" else "<")
                  Engine.auto_threshold) );
        ];
  let st, ddg, scc_order =
    make_state ?budget ~engine:resolved ~memo cfg prog all_deps
  in
  (* initial cut *)
  (match cfg.initial_cut with
  | None -> ()
  | Some strategy ->
    let beta = beta_of_cut st strategy ~violating:None in
    (* apply even when trivial (single partition): the row is harmless *)
    apply_beta st beta;
    cut_event st ~name:"cut.initial" ~strategy:(strategy_name strategy) ());
  let max_depth = Scop.Program.max_depth prog in
  let guard = ref 0 in
  (* [n] fallback cuts after a failed solve, one guard step each, as if
     every state they skip had been solved *)
  let commit_cuts n =
    for _ = 1 to n do
      if not (try_cut st cfg.fallback_cut) then
        fail_search st "sched.no-hyperplane"
          (Printf.sprintf
             "Scheduler(%s): no hyperplane and no further cut possible" cfg.name)
    done;
    guard := !guard + n - 1
  in
  while Array.exists (fun id -> st.rank.(id) < stmt_depth prog id)
          (Array.init (Array.length prog.stmts) Fun.id)
        && !guard < 10 * (max_depth + Array.length prog.stmts)
  do
    incr guard;
    match solve_level st with
    | Hyperplane x ->
      let is_first = st.accepted_hyp_rows = 0 in
      let cut_done =
        if cfg.outer_parallel && is_first then begin
          match outer_violations st x with
          | [] -> false
          | d :: _ ->
            (* discard the candidate row; distribute the offending SCCs *)
            let beta = beta_of_cut st Cut_minimal ~violating:(Some d) in
            if is_refinement st beta then begin
              apply_beta st beta;
              (* Algorithm 2 of the paper: the first hyperplane would
                 carry a forward dependence across SCCs, so the outer
                 loop could not be parallel — distribute instead *)
              cut_event st ~name:"cut.alg2" ~strategy:"minimal" ~violating:d
                ();
              true
            end
            else false
        end
        else false
      in
      if not cut_done then accept_row st x
    | Dead_end ->
      (* one cut: after a feasible lp-dfp relaxation every later state's
         is feasible too, and the ILP engine keeps its one-cut scan *)
      commit_cuts 1
    | Infeasible_relaxation ->
      commit_cuts (if Chaos.hooks.linear_cuts then 1 else bisect_cuts st)
  done;
  if Array.exists (fun id -> st.rank.(id) < stmt_depth prog id)
       (Array.init (Array.length prog.stmts) Fun.id)
  then
    fail_search st "sched.no-convergence"
      (Printf.sprintf "Scheduler(%s): did not converge" cfg.name);
  (* final textual order *)
  let fb = final_beta st in
  Array.iteri (fun id rows -> st.rows_rev.(id) <- Sched.Beta fb.(id) :: rows) st.rows_rev;
  mark_beta_satisfaction st fb;
  let sched = Array.map List.rev st.rows_rev in
  let outer_partition = Sched.outer_partition sched in
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"fuse" "fuse.partition"
      ~args:
        [
          ("config", Obs.Json.Str cfg.name);
          ("partition", Obs.Json.Str (partition_string outer_partition));
          ("groups", Obs.Json.Int (1 + Array.fold_left max 0 outer_partition));
        ];
  verify_result
    {
      prog;
      config_name = cfg.name;
      engine = resolved;
      all_deps;
      true_deps = Array.to_list st.true_deps;
      ddg;
      scc_of = st.scc_of;
      scc_order;
      sched;
      outer_partition;
    }

let run ?param_floor ?budget ?engine cfg prog =
  let all_deps =
    Counters.time "dep-analysis" (fun () -> Dep.analyze ?param_floor prog)
  in
  Counters.time "scheduling" (fun () ->
      run_with_deps_budgeted ?budget ?engine ~memo:(Farkas.memo ()) cfg prog
        all_deps)

let schedule_with_deps ?budget ?engine ~memo cfg prog all_deps =
  Diagnostics.protect (fun () ->
      Counters.time "scheduling" (fun () ->
          run_with_deps_budgeted ?budget ?engine ~memo cfg prog all_deps))

let partitions (result : result) =
  let n = Array.length result.prog.stmts in
  let by_part = Hashtbl.create 16 in
  for id = 0 to n - 1 do
    let p = result.outer_partition.(id) in
    let cur = Option.value (Hashtbl.find_opt by_part p) ~default:[] in
    Hashtbl.replace by_part p (id :: cur)
  done;
  let parts = Hashtbl.fold (fun p members acc -> (p, List.rev members) :: acc) by_part [] in
  List.map snd (List.sort compare parts)

(* --- stock configurations --------------------------------------------- *)

let nofuse =
  {
    name = "nofuse";
    order_sccs = topological_order;
    initial_cut = Some Cut_all_sccs;
    fallback_cut = Cut_all_sccs;
    outer_parallel = false;
  }

let maxfuse =
  {
    name = "maxfuse";
    order_sccs = topological_order;
    initial_cut = None;
    fallback_cut = Cut_minimal;
    outer_parallel = false;
  }

let smartfuse =
  {
    name = "smartfuse";
    order_sccs = topological_order;
    initial_cut = Some Cut_between_dims;
    fallback_cut = Cut_minimal;
    outer_parallel = false;
  }
