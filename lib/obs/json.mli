(** A minimal JSON tree: one writer and one parser for every JSON
    artifact the project emits or reads back (wisecheck findings, serve
    envelopes, trace exports). Before this module each site
    hand-rolled its own escaping and quote-aware field scanning; they
    now all share this one implementation.

    The writer is deliberately plain: UTF-8 strings pass through
    byte-for-byte (only quotes, backslashes and control characters are
    escaped),
    floats print with enough digits to round-trip the values the
    pipeline produces, and non-finite floats degrade to [null] rather
    than emitting invalid JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering. *)
val to_string : t -> string

(** Indented rendering, 2 spaces per level, trailing newline. *)
val to_string_pretty : t -> string

(** Parse a complete JSON document. [Error msg] carries a byte offset.
    Numbers without ['.'], ['e'] or overflow parse as [Int], everything
    else as [Float]. *)
val parse : string -> (t, string) result

(** {2 Accessors} *)

(** Field of an object ([None] on absent field or non-object). *)
val member : string -> t -> t option

val to_string_opt : t -> string option
val to_int_opt : t -> int option

(** [Int] values convert too. *)
val to_float_opt : t -> float option

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** Round to two decimals — keeps emitted timing fields short. *)
val round2 : float -> float
