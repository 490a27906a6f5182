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
  | Rendered of rendered
      (** A tree together with its compact text, rendered once by
          {!rendered}. *)

(** Abstract, so that only {!rendered} builds one: its text is always
    [to_string] of its tree. *)
and rendered

(** Compact (single-line) rendering. A [Rendered] node, at the top or
    anywhere inside, contributes its stored text; nothing below it is
    walked again. *)
val to_string : t -> string

(** [rendered v] holds [v] and [to_string v], rendered now. Printing
    the node appends that text, so a value printed many times (a cached
    serve payload) is rendered once. {!member}, the [to_*_opt]
    accessors and {!to_string_pretty} look through it to [v].
    [rendered] of a [Rendered] node is that node. *)
val rendered : t -> t

(** Indented rendering, 2 spaces per level, trailing newline. *)
val to_string_pretty : t -> string

(** [add_int buf n] appends [string_of_int n] without building the
    string: the one decimal writer for the JSON [Int] case,
    [Poly.Constr.structural_key] and [Serve.Fingerprint]. *)
val add_int : Buffer.t -> int -> unit

(** Parse a complete JSON document. [Error msg] carries a byte offset.
    Numbers without ['.'], ['e'] or overflow parse as [Int], everything
    else as [Float]. A [\\u] escape decodes to UTF-8: a high surrogate
    followed by a low one is one code point above U+FFFF, and a lone
    surrogate or a non-hex digit is an error. So is a string whose raw
    bytes are not valid UTF-8. Never returns a [Rendered] node. *)
val parse : string -> (t, string) result

(** {2 Accessors} *)

(** Field of an object ([None] on absent field or non-object). Like the
    [to_*_opt] accessors, it looks through a [Rendered] node. *)
val member : string -> t -> t option

val to_string_opt : t -> string option
val to_int_opt : t -> int option

(** [Int] values convert too. *)
val to_float_opt : t -> float option

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** Round to two decimals — keeps emitted timing fields short. *)
val round2 : float -> float
