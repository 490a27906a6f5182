(** A whole SCoP: parameters, array declarations, statements in
    program order. *)

type array_decl = {
  array_name : string;
  extents : int array array;
      (** one row per dimension, each of width [nparams + 1]
          (parameter coefficients then constant) *)
}

type t = private {
  name : string;
  params : string array;
  default_params : int array;  (** concrete values used by the machine *)
  arrays : array_decl list;
  stmts : Statement.t array;
}

(** Validates internal consistency: statement ids are positional,
    domains have dimension [depth + nparams], access and extent widths
    match, beta lengths are [depth + 1].
    @raise Invalid_argument when malformed. *)
val make :
  name:string ->
  params:string array ->
  default_params:int array ->
  arrays:array_decl list ->
  stmts:Statement.t array ->
  t

val nparams : t -> int

(** [array_extent p decl ~params] concretizes the extents. *)
val array_extent : array_decl -> params:int array -> int array

(** Maximum statement depth in the program. *)
val max_depth : t -> int

val pp : Format.formatter -> t -> unit
