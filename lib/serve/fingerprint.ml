(* Content-addressed structural fingerprints for whole scheduling
   requests.

   This generalizes Poly.Polyhedron.structural_key — a canonical
   textual form of one constraint system — to everything a scheduling
   request is a function of: the whole SCoP (domains, accesses,
   expression structure, loop-nest shape, textual positions, parameter
   defaults), the model configuration (which cut strategies, which
   pre-fusion order, Algorithm 2 on/off) and the legality param floor.
   Two requests with equal keys are guaranteed to schedule identically,
   so the serving cache can return the stored response verbatim.

   Canonicalization deliberately mirrors structural_key's philosophy:
   names are {e not} part of the key. Statement names, iterator names,
   parameter names and array names are all replaced by first-occurrence
   indices, so alpha-renamed programs collide — which is exactly what a
   content-addressed cache wants. Loop ids are likewise normalized by
   first occurrence, preserving which statements share which loops
   without keying on the builder's id allocation order.

   The dependence set of a program is a deterministic function of
   (program, param_floor) — the analysis is exact and has no hidden
   state — so the request key does NOT compute dependences: hashing
   the program content already content-addresses the dependence set,
   and the hit path stays free of B&B emptiness tests (zero LP pivots,
   zero B&B nodes). *)

(* Version tag mixed into every key; bump on format changes.
   v2: the requested scheduling engine joined the key (an lp-dfp
   schedule may legitimately differ from the ILP one, so the two must
   never share a cache entry).
   v3: the reductions flag joined the key (reduction-aware legality
   relaxes tagged self-dependences, so on/off schedules may differ). *)
let version = "wisefuse-fp-v3"

(* --- canonical writers --------------------------------------------------- *)

let add_int = Obs.Json.add_int

let add_int_array buf a =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf v)
    a;
  Buffer.add_char buf ']'

let add_matrix buf m =
  Buffer.add_char buf '{';
  Array.iter (fun row -> add_int_array buf row) m;
  Buffer.add_char buf '}'

(* arrays are keyed by their declaration index, not their name *)
let add_access buf ~array_index (a : Scop.Access.t) =
  Buffer.add_char buf 'a';
  add_int buf (array_index a.Scop.Access.array);
  add_matrix buf a.Scop.Access.idx

let rec add_expr buf ~array_index (e : Scop.Expr.t) =
  match e with
  | Scop.Expr.Const f ->
    (* %h is exact for every float, so structurally equal constants and
       only those collide *)
    Buffer.add_string buf (Printf.sprintf "c%h" f)
  | Scop.Expr.Load a -> add_access buf ~array_index a
  | Scop.Expr.Neg e1 ->
    Buffer.add_string buf "n(";
    add_expr buf ~array_index e1;
    Buffer.add_char buf ')'
  | Scop.Expr.Sqrt e1 ->
    Buffer.add_string buf "q(";
    add_expr buf ~array_index e1;
    Buffer.add_char buf ')'
  | Scop.Expr.Bin (op, l, r) ->
    Buffer.add_char buf
      (match op with
      | Scop.Expr.Add -> '+'
      | Scop.Expr.Sub -> '-'
      | Scop.Expr.Mul -> '*'
      | Scop.Expr.Div -> '/'
      | Scop.Expr.Min -> 'm'
      | Scop.Expr.Max -> 'M');
    Buffer.add_char buf '(';
    add_expr buf ~array_index l;
    Buffer.add_char buf ',';
    add_expr buf ~array_index r;
    Buffer.add_char buf ')'

(* --- the program body ---------------------------------------------------- *)

let add_program buf (p : Scop.Program.t) =
  Buffer.add_string buf "P|np=";
  add_int buf (Scop.Program.nparams p);
  Buffer.add_string buf "|defaults=";
  add_int_array buf p.Scop.Program.default_params;
  (* arrays by declaration order; names dropped, extents kept *)
  let array_index =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun i (d : Scop.Program.array_decl) ->
        if not (Hashtbl.mem tbl d.Scop.Program.array_name) then
          Hashtbl.add tbl d.Scop.Program.array_name i)
      p.Scop.Program.arrays;
    fun name ->
      match Hashtbl.find_opt tbl name with
      | Some i -> i
      | None -> -1 (* malformed program; still deterministic *)
  in
  Buffer.add_string buf "|arrays=";
  List.iter
    (fun (d : Scop.Program.array_decl) ->
      Buffer.add_char buf 'A';
      add_matrix buf d.Scop.Program.extents)
    p.Scop.Program.arrays;
  (* loop ids normalized by first occurrence across program order *)
  let loop_index =
    let tbl = Hashtbl.create 16 in
    let next = ref 0 in
    fun id ->
      match Hashtbl.find_opt tbl id with
      | Some i -> i
      | None ->
        let i = !next in
        incr next;
        Hashtbl.add tbl id i;
        i
  in
  Array.iter
    (fun (s : Scop.Statement.t) ->
      Buffer.add_string buf "|S:d=";
      add_int buf (Scop.Statement.depth s);
      Buffer.add_string buf ";beta=";
      add_int_array buf s.Scop.Statement.beta;
      Buffer.add_string buf ";loops=";
      add_int_array buf (Array.map loop_index s.Scop.Statement.loop_ids);
      Buffer.add_string buf ";dom=";
      Buffer.add_string buf (Poly.Polyhedron.structural_key s.Scop.Statement.domain);
      Buffer.add_string buf ";w=";
      add_access buf ~array_index s.Scop.Statement.write;
      Buffer.add_string buf ";r=";
      add_expr buf ~array_index s.Scop.Statement.rhs)
    p.Scop.Program.stmts

(* --- the model body ------------------------------------------------------ *)

let add_cut buf = function
  | Pluto.Scheduler.Cut_all_sccs -> Buffer.add_string buf "all"
  | Pluto.Scheduler.Cut_between_dims -> Buffer.add_string buf "dims"
  | Pluto.Scheduler.Cut_minimal -> Buffer.add_string buf "min"
  | Pluto.Scheduler.Cut_groups gs ->
    Buffer.add_string buf "groups(";
    List.iteri
      (fun i g ->
        if i > 0 then Buffer.add_char buf ',';
        add_int buf g)
      gs;
    Buffer.add_char buf ')'

let add_model buf (m : Fusion.Model.t) =
  match m with
  | Fusion.Model.Icc -> Buffer.add_string buf "M|icc"
  | _ ->
    (* the scheduler config's name identifies its pre-fusion ordering
       function (the one field a structural hash cannot inspect); the
       cut strategies and the Algorithm 2 flag are serialized
       structurally *)
    let cfg = Fusion.Model.scheduler_config m in
    Printf.bprintf buf "M|%s|cfg=%s|init=%a|fb=%a|alg2=%b" (Fusion.Model.name m)
      cfg.Pluto.Scheduler.name
      (fun buf -> function None -> Buffer.add_string buf "none" | Some c -> add_cut buf c)
      cfg.Pluto.Scheduler.initial_cut add_cut cfg.Pluto.Scheduler.fallback_cut
      cfg.Pluto.Scheduler.outer_parallel

(* --- the key -------------------------------------------------------------- *)

(* The *requested* choice is keyed, not the resolved kind: [Auto] and
   [Fixed] requests stay distinct even when they resolve to the same
   engine for a given program. Conservative (an auto request never
   collides into a fixed entry solved under a different threshold) and
   independent of the program's statement count. *)
let key ?(param_floor = 2) ?(engine = Pluto.Engine.Auto) ?(reductions = false)
    ~model prog =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%s\x00%a\x00engine=%s\x00reductions=%s\x00floor=%a\x00" version
    add_model model
    (Pluto.Engine.choice_name engine)
    (if reductions then "on" else "off")
    add_int param_floor;
  add_program buf prog;
  Digest.to_hex (Digest.string (Buffer.contents buf))
