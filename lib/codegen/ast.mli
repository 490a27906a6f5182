(** Loop ASTs generated from multidimensional affine schedules.

    The AST scans the transformed time space: one loop per hyperplane
    row, sequencing per scalar (beta) row. Loop variables are numbered
    by nesting depth ([y_0] outermost); bounds are affine in outer loop
    variables and parameters, with integer division (ceil for lower,
    floor for upper bounds).

    A statement instance recovers its original iterators from the loop
    variables by inverting the statement's hyperplane rows; a guard
    (divisibility + constant-row equality + domain membership) makes
    partial fusion of statements with different domains correct. *)

type bound = {
  num : int array;
      (** affine in [y_0 .. y_(level-1); params; 1] — width level+np+1 *)
  den : int;  (** positive divisor: lower bounds take ceil, upper floor *)
}

(** A generated loop's parallelism: {!Pluto.Satisfy.loop_class},
    re-exported so its constructors can be named from here. *)
type parallelism = Pluto.Satisfy.loop_class =
  | Parallel
  | Parallel_reduction
  | Forward
  | Sequential

type instance = {
  stmt_id : int;
  (* x = (hinv_num * (y_sel - g_sel)) / det, where y_sel are the values
     of the selected loop variables *)
  sel_levels : int array;  (** the d loop levels used for inversion *)
  hinv_num : int array array;  (** d x d integer adjugate-like matrix *)
  det : int;  (** non-zero *)
  g : int array array;
      (** per selected level: parameter part of the row, width np+1 *)
  const_rows : (int * int array) array;
      (** (level, param part): zero-iterator rows; the guard requires
          y_level = param_part(p) *)
}

type node =
  | Exec of instance
  | Seq of node list
  | Loop of loop

and loop = {
  level : int;  (** index of this loop's variable *)
  (* per-statement bound groups: the loop ranges over
     [min over groups (max of group) .. max over groups (min of group)];
     each statement additionally guards itself *)
  lb_groups : bound list list;
  ub_groups : bound list list;
  group_stmts : int list;
      (** statement id owning each bound group, positionally: group [i]
          of [lb_groups]/[ub_groups] is the projection of statement
          [List.nth group_stmts i]'s transformed domain. The analysis
          passes use this to tell a statement's own bounds apart from
          its fusion partners'. *)
  par : parallelism;
  body : node;
}

(** {1 Walks}

    Traversal hooks shared by the analysis passes ([lib/analysis]), the
    machine model and the test suite's AST mutators. *)

(** Pre-order over every loop (outermost first). *)
val iter_loops : (loop -> unit) -> node -> unit

(** Rebuild the tree, transforming every loop bottom-up (the function
    sees the loop with its body already mapped). *)
val map_loops : (loop -> loop) -> node -> node

(** Rebuild the tree, transforming every statement instance. *)
val map_instances : (instance -> instance) -> node -> node

(** All statement instances, in textual (execution) order. *)
val instances : node -> instance list

(** Statement ids of {!instances}, in textual order. Each statement
    occurs exactly once in a generated AST. *)
val members : node -> int list

(** [loop_range loop ~outer ~params] is the concrete [(lb, ub)]
    (inclusive; empty when [lb > ub]), each bound evaluated with ceil
    division for a lower and floor division for an upper bound. *)
val loop_range : loop -> outer:int array -> params:int array -> int * int

(** [instance_iters inst ~y ~params] recovers the original iterator
    vector, or [None] when the guard fails (not an integer point, a
    constant row mismatches, or out of the domain — the caller checks
    domain membership separately via {!guard}). *)
val instance_iters :
  instance -> y:int array -> params:int array -> int array option

(** [bound_to_string prog ~lower b]: the bound as C, e.g. ["t0+N-1"] or
    ["ceild(t0-1, 2)"] ([floord] for an upper bound); {!pp} and the C
    printer both write bounds with it. *)
val bound_to_string : Scop.Program.t -> lower:bool -> bound -> string

val pp : Scop.Program.t -> Format.formatter -> node -> unit
