(** Executing generated loop ASTs over real arrays.

    This is the functional half of the machine substrate: it runs a
    program (original or transformed) to completion so transformed
    programs can be checked {e semantically equivalent} to their
    sources, and it surfaces every memory access through a callback for
    the trace-driven performance model ({!Perf}). *)

type memory

(** [init_memory ?init prog ~params] allocates every array of the
    program at its concrete extent and fills it with [init name flat]
    (default: a deterministic pseudo-random pattern). Arrays get
    disjoint global element addresses for tracing. *)
val init_memory :
  ?init:(string -> int -> float) -> Scop.Program.t -> params:int array -> memory

(** Raw payload of one array (row-major). @raise Not_found. *)
val array_data : memory -> string -> float array

type access_kind = Read | Write

(** [run ?on_access ?on_stmt prog ast mem ~params] executes the AST.
    [on_access] sees every array access in order (byte addresses);
    [on_stmt] fires once per executed statement instance, with the
    statement id, before its accesses.
    @raise Invalid_argument on malformed ASTs (index out of extent). *)
val run :
  ?on_access:(access_kind -> int -> unit) ->
  ?on_stmt:(int -> unit) ->
  Scop.Program.t ->
  Codegen.Ast.node ->
  memory ->
  params:int array ->
  unit

(** [instance_runner ?on_access ?on_stmt prog mem ~params] returns a
    function executing one statement instance at a given time point —
    the building block for custom AST walks (see {!Perf}, which
    partitions parallel loops over model cores). *)
val instance_runner :
  ?on_access:(access_kind -> int -> unit) ->
  ?on_stmt:(int -> unit) ->
  Scop.Program.t ->
  memory ->
  params:int array ->
  Codegen.Ast.instance ->
  y:int array ->
  unit

(** [run_original prog mem ~params]: interpret the source program (via
    the identity schedule), same callbacks. Note the resulting AST is
    built without dependence information, so its parallelism marks are
    meaningless — use it for semantics only. *)
val run_original :
  ?on_access:(access_kind -> int -> unit) ->
  ?on_stmt:(int -> unit) ->
  Scop.Program.t ->
  memory ->
  params:int array ->
  unit

(** The first array element that differs beyond a 1e-9 relative-ish
    tolerance, human-readable; [None] when the memories agree. *)
val first_diff : memory -> memory -> string option
