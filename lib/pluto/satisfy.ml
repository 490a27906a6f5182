open Linalg
open Deps

type range = { dmin : Q.t option; dmax : Q.t option }

let diff_vec (prog : Scop.Program.t) (dep : Dep.t) (sched : Sched.t) ~level =
  let src = prog.stmts.(dep.src) and dst = prog.stmts.(dep.dst) in
  let d1 = Scop.Statement.depth src and d2 = Scop.Statement.depth dst in
  let np = Scop.Program.nparams prog in
  let src_row = Sched.row_as_hyp ~depth:d1 ~np (List.nth sched.(dep.src) level) in
  let dst_row = Sched.row_as_hyp ~depth:d2 ~np (List.nth sched.(dep.dst) level) in
  Sched.phi_diff ~d1 ~d2 ~np src_row dst_row

(* Verification LPs run unbudgeted — a degraded schedule must still be
   checkable — so [Exhausted] only arises under the [exhaust] test
   hook ([Linalg.Chaos]). Treat it like "unbounded" (unknown): for
   legality that errs toward reporting a violation, never toward
   accepting an illegal schedule. *)
let diff_min prog dep sched ~level =
  let obj = diff_vec prog dep sched ~level in
  match Ilp.Lp.minimize dep.poly obj with
  | Ilp.Lp.Optimal (v, _) -> Some v
  | Ilp.Lp.Unbounded | Ilp.Lp.Exhausted -> None
  | Ilp.Lp.Infeasible -> invalid_arg "Satisfy.diff_min: empty dependence"

let diff_range prog dep sched ~level =
  let obj = diff_vec prog dep sched ~level in
  let dmin =
    match Ilp.Lp.minimize dep.poly obj with
    | Ilp.Lp.Optimal (v, _) -> Some v
    | Ilp.Lp.Unbounded | Ilp.Lp.Exhausted -> None
    | Ilp.Lp.Infeasible -> invalid_arg "Satisfy.diff_range: empty dependence"
  in
  let dmax =
    match Ilp.Lp.maximize dep.poly obj with
    | Ilp.Lp.Optimal (v, _) -> Some v
    | Ilp.Lp.Unbounded | Ilp.Lp.Exhausted -> None
    | Ilp.Lp.Infeasible -> invalid_arg "Satisfy.diff_range: empty dependence"
  in
  { dmin; dmax }

let satisfaction_level prog dep sched =
  let n = Sched.num_rows sched in
  let rec go level =
    if level >= n then None
    else begin
      match diff_min prog dep sched ~level with
      | Some v when Q.compare v Q.one >= 0 -> Some level
      | _ -> go (level + 1)
    end
  in
  go 0

let check_legal prog deps sched =
  let n = Sched.num_rows sched in
  let check_dep (d : Dep.t) =
    if (not (Dep.is_true d)) || d.tag = Dep.Reduction then true
    else begin
      (* scan rows: all deltas >= 0 until the first >= 1 *)
      let rec go level =
        if level >= n then false (* never satisfied *)
        else begin
          match diff_min prog d sched ~level with
          | Some v when Q.compare v Q.one >= 0 -> true
          | Some v when Q.sign v >= 0 -> go (level + 1)
          | _ -> false (* negative or unbounded below: violated *)
        end
      in
      go 0
    end
  in
  let rec first_bad = function
    | [] -> Ok ()
    | d :: rest -> if check_dep d then first_bad rest else Error d
  in
  first_bad deps

(* Structural completeness: does the schedule actually define a full
   transform for every statement? Exactly the preconditions code
   generation ([Codegen.Scan.make_instance]) needs — checked here so a
   bad schedule surfaces as a typed diagnostic at the pipeline boundary
   instead of a [failwith] deep inside codegen:

   - every statement has the same number of rows;
   - per statement, the rows with a nonzero iterator part number
     exactly the statement's depth;
   - those rows' iterator parts form a non-singular (full-rank)
     transform. *)
let check_complete (prog : Scop.Program.t) (sched : Sched.t) =
  let n = Array.length prog.stmts in
  if n = 0 || Array.length sched <> n then
    if n = 0 then Ok ()
    else
      Error
        (Diagnostics.make ~phase:Verification ~code:"verify.stmt-count"
           ~context:
             [
               ("statements", string_of_int n);
               ("schedule-entries", string_of_int (Array.length sched));
             ]
           "schedule does not cover every statement")
  else begin
    let nrows = List.length sched.(0) in
    let rec go id =
      if id >= n then Ok ()
      else begin
        let st = prog.stmts.(id) in
        let d = Scop.Statement.depth st in
        let ctx extra =
          (("statement", st.name) :: ("depth", string_of_int d) :: extra)
        in
        if List.length sched.(id) <> nrows then
          Error
            (Diagnostics.make ~phase:Verification ~code:"verify.ragged-rows"
               ~context:
                 (ctx
                    [
                      ("rows", string_of_int (List.length sched.(id)));
                      ("expected", string_of_int nrows);
                    ])
               (Printf.sprintf "statement %s has %d schedule rows, expected %d"
                  st.name
                  (List.length sched.(id))
                  nrows))
        else begin
          let iter_parts =
            List.filter_map
              (function
                | Sched.Hyp h ->
                  let ip = Array.sub h 0 d in
                  if Array.exists (fun c -> c <> 0) ip then Some ip else None
                | Sched.Beta _ -> None)
              sched.(id)
          in
          let k = List.length iter_parts in
          if k <> d then
            Error
              (Diagnostics.make ~phase:Verification ~code:"verify.rank"
                 ~context:(ctx [ ("non-constant-rows", string_of_int k) ])
                 (Printf.sprintf
                    "statement %s has %d non-constant schedule rows for depth %d"
                    st.name k d))
          else if
            d > 0 && Mat.rank (Mat.of_ints (Array.of_list iter_parts)) <> d
          then
            Error
              (Diagnostics.make ~phase:Verification ~code:"verify.singular"
                 ~context:(ctx [])
                 (Printf.sprintf "statement %s: singular schedule transform"
                    st.name))
          else go (id + 1)
        end
      end
    in
    go 0
  end

type loop_class = Parallel | Parallel_reduction | Forward | Sequential

let loop_class_name = function
  | Parallel -> "parallel"
  | Parallel_reduction -> "parallel-reduction"
  | Forward -> "forward"
  | Sequential -> "sequential"

let row_class prog deps sched ~level ~members =
  let live (d : Dep.t) =
    Dep.is_true d
    && List.mem d.src members && List.mem d.dst members
    &&
    (* not satisfied before this level *)
    match satisfaction_level prog d sched with
    | Some l -> l >= level
    | None -> true
  in
  let carries_forward (d : Dep.t) =
    let r = diff_range prog d sched ~level in
    match r.dmax with
    | Some v -> Q.sign v > 0
    | None -> true
  in
  let carried = List.filter (fun d -> live d && carries_forward d) deps in
  if carried = [] then Parallel
  else if List.for_all (fun (d : Dep.t) -> d.tag = Dep.Reduction) carried then
    Parallel_reduction
  else Forward
