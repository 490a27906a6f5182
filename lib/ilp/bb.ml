open Linalg
open Poly

(* one lexmin stage's outcome; [Gave_up]: node cap or budget exhausted *)
type answer =
  | Optimal of Q.t * int array
  | Infeasible
  | Unbounded
  | Gave_up

let to_int_point (x : Vec.t) = Array.map (fun q -> Bigint.to_int (Q.to_bigint q)) x

let first_fractional (x : Vec.t) =
  let n = Array.length x in
  let rec go i = if i >= n then None else if Q.is_integer x.(i) then go (i + 1) else Some i in
  go 0

(* x_i <= floor(v):  -x_i + floor(v) >= 0 *)
let le_branch dim i v =
  let c = Vec.zero (dim + 1) in
  c.(i) <- Q.minus_one;
  c.(dim) <- Q.of_bigint (Q.floor v);
  Constr.make Constr.Ge c

(* x_i >= ceil(v):  x_i - ceil(v) >= 0 *)
let ge_branch dim i v =
  let c = Vec.zero (dim + 1) in
  c.(i) <- Q.one;
  c.(dim) <- Q.neg (Q.of_bigint (Q.ceil v));
  Constr.make Constr.Ge c

(* How a node obtains its LP solution: a cold two-phase solve, or a
   dual-simplex re-solve of a snapshot basis (the parent node's, or the
   previous lexmin stage's root) with some constraints appended. *)
type src = Cold | Warm of Lp.warm * Constr.t list

type search_state = {
  nonneg : bool;
  use_warm : bool; (* thread warm snapshots into child nodes *)
  mutable incumbent : (Q.t * int array) option;
  mutable nodes : int;
  mutable saw_unbounded : bool;
  mutable gave_up : bool;
  mutable root_warm : Lp.warm option; (* snapshot of the root relaxation *)
  stop_at_first : bool; (* feasibility search: stop on the first point *)
  budget : Budget.t option; (* shared resource budget, None = unlimited *)
}

exception Found_first

(* Node cap of every search, on top of any [Budget]. *)
let max_nodes = 20000

(* Differential check (the [check_warm] test hook): a warm re-solve
   must agree with a cold solve of the same node — same status, same
   optimal value, and a feasible point. *)
let check_against_cold st p obj result =
  (* an Exhausted warm solve is budget-dependent, not a disagreement *)
  if result = Lp.Exhausted then ()
  else
  let ok =
    match (result, Lp.minimize ~nonneg:st.nonneg p obj) with
    | Lp.Optimal (v, x), Lp.Optimal (v', _) ->
      Q.equal v v'
      && Polyhedron.contains p x
      && ((not st.nonneg) || Array.for_all (fun q -> Q.sign q >= 0) x)
    | Lp.Infeasible, Lp.Infeasible | Lp.Unbounded, Lp.Unbounded -> true
    | _ -> false
  in
  if not ok then failwith "Ilp.Bb: warm and cold solves disagree"

(* Charge one branch-and-bound node; [false] latches [gave_up] so the
   whole tree unwinds without raising. *)
let charge_node st =
  match st.budget with
  | None -> true
  | Some b ->
    let ok = Budget.spend_node b in
    if not ok then st.gave_up <- true;
    ok

let rec branch st p obj ~src =
  if st.gave_up then ()
  else if st.nodes >= max_nodes then st.gave_up <- true
  else if not (charge_node st) then ()
  else begin
    st.nodes <- st.nodes + 1;
    Counters.(incr bb_nodes);
    let result, warm =
      match src with
      | Cold -> Lp.minimize_warm ~nonneg:st.nonneg ?budget:st.budget p obj
      | Warm (w, cs) ->
        let r, w' = Lp.reoptimize ?budget:st.budget w ~add:cs ~obj in
        if Chaos.hooks.check_warm then check_against_cold st p obj r;
        (r, w')
    in
    if st.nodes = 1 then st.root_warm <- warm;
    match result with
    | Lp.Infeasible -> ()
    | Lp.Unbounded -> st.saw_unbounded <- true
    | Lp.Exhausted -> st.gave_up <- true
    | Lp.Optimal (v, x) ->
      let dominated =
        match st.incumbent with
        | Some (best, _) -> Q.compare v best >= 0
        | None -> false
      in
      if not dominated then begin
        match first_fractional x with
        | None ->
          st.incumbent <- Some (v, to_int_point x);
          if st.stop_at_first then raise Found_first
        | Some i ->
          let dim = Polyhedron.dim p in
          let child c =
            match warm with
            | Some w when st.use_warm -> Warm (w, [ c ])
            | _ -> Cold
          in
          let le = le_branch dim i x.(i) and ge = ge_branch dim i x.(i) in
          branch st (Polyhedron.add p le) obj ~src:(child le);
          branch st (Polyhedron.add p ge) obj ~src:(child ge)
      end
  end

let run ?(stop_at_first = false) ?(nonneg = false) ?(use_warm = true) ?budget ?root_src p obj =
  Counters.(incr ilp_solves);
  let st =
    {
      nonneg;
      use_warm;
      incumbent = None;
      nodes = 0;
      saw_unbounded = false;
      gave_up = false;
      root_warm = None;
      stop_at_first;
      budget;
    }
  in
  let src =
    match root_src with
    | Some (w, cs) when use_warm -> Warm (w, cs)
    | _ -> Cold
  in
  (try branch st p obj ~src with Found_first -> ());
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"ilp" "ilp.bb"
      ~args:
        [
          ("nodes", Obs.Json.Int st.nodes);
          ("warm-rooted", Obs.Json.Bool (match src with Warm _ -> true | Cold -> false));
          ( "outcome",
            Obs.Json.Str
              (match st.incumbent with
              | Some _ -> if st.saw_unbounded then "unbounded" else "optimal"
              | None ->
                if st.saw_unbounded then "unbounded"
                else if st.gave_up then "gave-up"
                else "infeasible") );
        ];
  st

let answer_of st =
  match st.incumbent with
  | Some (v, x) -> if st.saw_unbounded then Unbounded else Optimal (v, x)
  | None ->
    if st.saw_unbounded then Unbounded
    else if st.gave_up then Gave_up
    else Infeasible

(* Both point searches run cold. Warm re-solves can land on a different
   optimal vertex of a degenerate LP, which changes the branching path
   and therefore *which* integer point is found first: a cold
   [integer_point] keeps the point the scheduler embeds into schedules
   independent of the warm-start machinery. A warm path can also wander:
   on an unbounded polyhedron a warm depth-first [feasible] search spent
   its whole node cap (and answered "feasible" only because it gave up)
   where the cold search finds a point in 13 nodes. *)
let integer_point ?nonneg ?budget p =
  let obj = Vec.zero (Polyhedron.dim p + 1) in
  let st =
    run ~stop_at_first:true ?nonneg ~use_warm:false ?budget p obj
  in
  Option.map snd st.incumbent

let feasible ?budget p =
  if Polyhedron.is_empty p then false
  else begin
    let obj = Vec.zero (Polyhedron.dim p + 1) in
    let st = run ~stop_at_first:true ~use_warm:false ?budget p obj in
    match st.incumbent with
    | Some _ -> true
    | None ->
      (* no integer point found: exact "no" if the search completed,
         conservative "yes" (rational-feasible) if it gave up *)
      st.gave_up
  end

let lexmin ?nonneg ?budget p objs =
  let dim = Polyhedron.dim p in
  (* [from] carries the previous stage's root-relaxation snapshot plus
     the pending objective-fixing equality, so each stage's root LP is a
     dual-simplex re-solve instead of a fresh two-phase solve. Only the
     stage *values* flow into the fixing constraints (warm-safe: optimal
     values are unique); the final witness point is found cold. *)
  let rec go p from acc = function
    | [] -> (
      (* recover a point optimal for all fixed objectives *)
      match integer_point ?nonneg ?budget p with
      | Some x -> Some (List.rev acc, x)
      | None -> None)
    | obj :: rest -> (
      let st = run ?nonneg ?budget ?root_src:from p obj in
      match answer_of st with
      | Optimal (v, _) ->
        (* fix this objective: obj . x + c = v *)
        let fix = Vec.copy obj in
        fix.(dim) <- Q.sub fix.(dim) v;
        let fixc = Constr.make Constr.Eq fix in
        let from' = Option.map (fun w -> (w, [ fixc ])) st.root_warm in
        go (Polyhedron.add p fixc) from' (v :: acc) rest
      | Infeasible | Unbounded | Gave_up -> None)
  in
  go p None [] objs

let remove_redundant p =
  let rows = Array.of_list (Polyhedron.constraints p) in
  (* each inequality is tested against the rows still standing, taken
     from the stored list in order: everything but itself and the rows
     dropped before it *)
  let live = Array.make (Array.length rows) true in
  let standing () = Polyhedron.filter (fun i _ -> live.(i)) p in
  Array.iteri
    (fun i c ->
      if Constr.kind c = Constr.Ge then begin
        live.(i) <- false;
        let redundant =
          match Lp.minimize (standing ()) (Constr.coeffs c) with
          | Lp.Optimal (v, _) -> Q.sign v >= 0
          | Lp.Infeasible -> true (* empty set: anything is implied *)
          | Lp.Unbounded -> false
          | Lp.Exhausted -> false (* unknown: conservatively keep the row *)
        in
        live.(i) <- not redundant
      end)
    rows;
  standing ()
