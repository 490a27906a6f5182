(* Reduction detection: prove statements have the shape
   A[f(i)] = A[f(i)] ⊕ e with ⊕ associative and commutative, the
   accumulator read-modify-write under identical subscripts, e free of
   the accumulator, and no other statement writing the cell mid-chain.

   The proof is purely structural over the expression AST plus the
   already-computed dependence set — no LP/ILP solves — so wisecheck
   can re-derive it independently of whatever the scheduler claimed. *)

open Deps

let is_assoc = function
  | Scop.Expr.Add | Scop.Expr.Mul | Scop.Expr.Min | Scop.Expr.Max -> true
  | Scop.Expr.Sub | Scop.Expr.Div -> false

(* leaves of the maximal same-operator chain: for ⊕ associative,
   ((a ⊕ x) ⊕ y) is as much a reduction as (a ⊕ (x ⊕ y)) *)
let rec chain_leaves op e acc =
  match e with
  | Scop.Expr.Bin (op', l, r) when op' = op ->
    chain_leaves op l (chain_leaves op r acc)
  | leaf -> leaf :: acc

let reads_array arr e =
  List.exists (fun (a : Scop.Access.t) -> a.array = arr) (Scop.Expr.loads e)

(* rejection reason codes — stable, tested by the seeded-bug suite *)
let reason_non_assoc = "non-associative-op"
let reason_subscript = "subscript-mismatch"
let reason_acc_read = "accumulator-read"
let reason_interleaved = "interleaved-writer"

let access_str (prog : Scop.Program.t) (st : Scop.Statement.t) a =
  Format.asprintf "%a"
    (Scop.Access.pp ~iter_names:st.iters ~param_names:prog.params)
    a

(* the original loop depths carrying this statement's true
   self-dependences on [arr] — the accumulation chain *)
let self_dep_info (st : Scop.Statement.t) arr deps =
  let covered = ref [] and levels = ref [] in
  List.iteri
    (fun i (d : Dep.t) ->
      if
        Dep.is_true d && d.src = st.id && d.dst = st.id
        && d.src_access.Scop.Access.array = arr
      then begin
        covered := i :: !covered;
        match d.level with
        | Dep.Carried l -> if not (List.mem l !levels) then levels := l :: !levels
        | Dep.Independent -> ()
      end)
    deps;
  (List.rev !covered, List.sort compare !levels)

(* is there another statement whose write to the accumulator array
   interleaves with the chain? An output dependence between [st] and a
   different statement, carried by one of the chain loops, means the
   foreign write alternates with the accumulation — the chain cannot be
   reassociated across it. *)
let interleaved_writer (st : Scop.Statement.t) arr chain_levels deps =
  List.find_opt
    (fun (d : Dep.t) ->
      d.kind = Dep.Output
      && d.src_access.Scop.Access.array = arr
      && (d.src = st.id) <> (d.dst = st.id)
      && (match d.level with
         | Dep.Carried l -> List.mem l chain_levels
         | Dep.Independent -> false))
    deps

let detect (prog : Scop.Program.t) deps =
  let facts = ref [] and findings = ref [] in
  let reject ?dep (st : Scop.Statement.t) reason msg ctx =
    findings :=
      Finding.make ~stmts:[ st.id ] ?dep
        ~context:(("reason", reason) :: ctx)
        Finding.Reduction_rejected
        (Printf.sprintf "%s is not a provable reduction: %s" st.name msg)
      :: !findings
  in
  Array.iter
    (fun (st : Scop.Statement.t) ->
      match st.rhs with
      | Scop.Expr.Bin (op, l, r) when not (is_assoc op) ->
        (* near-miss only if an immediate operand loads the written
           array: [a - x] shapes; anything else is a plain statement *)
        let direct = function
          | Scop.Expr.Load (a : Scop.Access.t) ->
            a.array = st.write.Scop.Access.array
          | _ -> false
        in
        if direct l || direct r then
          reject st reason_non_assoc
            (Printf.sprintf "operator %s is not associative/commutative"
               (Scop.Expr.op_str op))
            [ ("operator", Scop.Expr.op_str op) ]
      | Scop.Expr.Bin (op, _, _) -> begin
        let arr = st.write.Scop.Access.array in
        let leaves = chain_leaves op st.rhs [] in
        let acc_leaves, rest =
          List.partition
            (function
              | Scop.Expr.Load (a : Scop.Access.t) -> a.array = arr
              | _ -> false)
            leaves
        in
        match acc_leaves with
        | [] ->
          (* the accumulator array may still hide inside a compound
             leaf, e.g. sqrt(A[i]) — a near-miss, not a plain statement *)
          if List.exists (reads_array arr) rest then
            reject st reason_acc_read
              "the accumulator is read inside the combined expression, \
               not as a direct operand"
              []
        | [ Scop.Expr.Load a ] when not (Scop.Access.equal a st.write) ->
          reject st reason_subscript
            (Printf.sprintf "accumulator subscripts differ: writes %s, reads %s"
               (access_str prog st st.write)
               (access_str prog st a))
            [
              ("write", access_str prog st st.write);
              ("read", access_str prog st a);
            ]
        | [ Scop.Expr.Load _ ] when List.exists (reads_array arr) rest ->
          reject st reason_acc_read
            "the combined expression reads the accumulator array" []
        | [ Scop.Expr.Load _ ] -> begin
          let covered, chain_levels = self_dep_info st arr deps in
          match interleaved_writer st arr chain_levels deps with
          | Some d ->
            let other = if d.src = st.id then d.dst else d.src in
            reject st reason_interleaved
              (Printf.sprintf
                 "%s writes the accumulator cell mid-chain (loop %s)"
                 prog.stmts.(other).Scop.Statement.name
                 (match d.level with
                 | Dep.Carried lv -> string_of_int lv
                 | Dep.Independent -> "-"))
              ~dep:d
              [ ("writer", prog.stmts.(other).Scop.Statement.name) ]
          | None ->
            let info =
              {
                Reduction_info.stmt = st.id;
                op;
                acc = st.write;
                covered;
                chain_levels;
              }
            in
            facts := info :: !facts;
            Linalg.Counters.(incr reductions_detected);
            findings :=
              Finding.make ~stmts:[ st.id ]
                ~context:
                  [
                    ("operator", Scop.Expr.op_str op);
                    ("accumulator", access_str prog st st.write);
                    ("covered-self-deps", string_of_int (List.length covered));
                    ( "chain-loops",
                      String.concat ","
                        (List.map string_of_int chain_levels) );
                  ]
                Finding.Reduction_detected
                (Printf.sprintf "%s is a %s-reduction into %s" st.name
                   (Scop.Expr.op_str op)
                   (access_str prog st st.write))
              :: !findings
        end
        | _ ->
          (* ≥ 2 accumulator leaves (the partition admits only [Load]s,
             so the non-Load singleton shapes are unreachable) *)
          reject st reason_acc_read
            "the accumulator appears more than once on the right-hand side" []
      end
      | _ -> ())
    prog.stmts;
  (List.rev !facts, List.rev !findings)

let tag_deps facts deps =
  let covered = Hashtbl.create 16 in
  List.iter
    (fun (i : Reduction_info.t) ->
      List.iter (fun idx -> Hashtbl.replace covered idx ()) i.covered)
    facts;
  List.mapi
    (fun i (d : Dep.t) ->
      if Hashtbl.mem covered i then { d with tag = Dep.Reduction } else d)
    deps

(* does [fact] cover dependence [d]? Used by the race checker: a
   carried conflict under a [Parallel_reduction] mark is tolerable only
   if it is a self-dependence of a proven reduction statement on its
   accumulator array. *)
let covers (fact : Reduction_info.t) (d : Dep.t) =
  d.src = fact.stmt && d.dst = fact.stmt
  && d.src_access.Scop.Access.array = fact.acc.Scop.Access.array
