(* Solver resource budgets.

   A budget caps the resources one logical "solve" (an LP, a
   branch-and-bound tree, or a whole scheduling run) may consume:
   wall-clock time, simplex pivots, and branch-and-bound nodes. The
   consumers ([Ilp.Lp], [Ilp.Bb], [Pluto.Scheduler]) charge the budget
   from their hot loops; exhaustion is *latched* — once a budget trips,
   every further charge fails immediately, so a multi-stage computation
   unwinds quickly instead of grinding each stage to its own limit.

   Budgets never raise across a public API: exhaustion surfaces as a
   typed outcome ([Lp.Exhausted], [None] from [Bb.lexmin]) that callers
   walk their degradation ladder on. *)

type t = {
  deadline : float option; (* absolute monotonic time ({!Clock.now}), seconds *)
  max_pivots : int option;
  max_nodes : int option;
  mutable pivots : int;
  mutable nodes : int;
  mutable tripped : bool;
}

(* Deadlines live on the monotonic clock: a wall-clock (NTP) step must
   not trip a budget instantly or extend it indefinitely. *)
let make ?ms ?pivots ?nodes () =
  {
    deadline =
      Option.map (fun m -> Clock.now () +. (float_of_int m /. 1e3)) ms;
    max_pivots = pivots;
    max_nodes = nodes;
    pivots = 0;
    nodes = 0;
    tripped = false;
  }

(* A fresh budget with the same *limits* but zero consumption and a
   restarted clock: each rung of a degradation ladder gets its own
   allowance rather than inheriting an already-tripped budget. *)
let refresh b =
  let remaining_ms =
    Option.map
      (fun d -> max 1 (int_of_float ((d -. Clock.now ()) *. 1e3)))
      b.deadline
  in
  (* keep at least the original per-stage pivot/node caps *)
  {
    deadline =
      Option.map
        (fun ms -> Clock.now () +. (float_of_int ms /. 1e3))
        remaining_ms;
    max_pivots = b.max_pivots;
    max_nodes = b.max_nodes;
    pivots = 0;
    nodes = 0;
    tripped = false;
  }

let exhausted b = b.tripped

let over_deadline b =
  match b.deadline with
  | None -> false
  | Some d -> Clock.now () > d

(* [spend_pivot b] charges one simplex pivot; [false] means the budget
   is exhausted and the caller must stop. Cheap: two int compares and
   (only when a wall limit is set) one clock read. *)
let spend_pivot b =
  if b.tripped then false
  else begin
    b.pivots <- b.pivots + 1;
    (match b.max_pivots with
    | Some m when b.pivots > m -> b.tripped <- true
    | _ -> if over_deadline b then b.tripped <- true);
    not b.tripped
  end

let spend_node b =
  if b.tripped then false
  else begin
    b.nodes <- b.nodes + 1;
    (match b.max_nodes with
    | Some m when b.nodes > m -> b.tripped <- true
    | _ -> if over_deadline b then b.tripped <- true);
    not b.tripped
  end

(* WISEFUSE_BUDGET_MS; [None] when unset, so the unbudgeted fast path
   stays the default *)
let of_env () =
  match Sys.getenv_opt "WISEFUSE_BUDGET_MS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some ms when ms > 0 -> Some (make ~ms ())
    | _ -> None)

let describe b =
  let lim name = function
    | Some v -> Printf.sprintf "%s<=%d" name v
    | None -> ""
  in
  let parts =
    List.filter
      (fun s -> s <> "")
      [
        (match b.deadline with Some _ -> "wall-clock" | None -> "");
        lim "pivots" b.max_pivots;
        lim "nodes" b.max_nodes;
      ]
  in
  if parts = [] then "unlimited" else String.concat "," parts

let pp fmt b =
  Format.fprintf fmt "%s (spent: %d pivots, %d nodes%s)" (describe b) b.pivots
    b.nodes
    (if b.tripped then ", EXHAUSTED" else "")
