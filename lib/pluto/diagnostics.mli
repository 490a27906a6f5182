(** Typed diagnostics for the scheduling pipeline.

    Replaces library-level [failwith]: a diagnostic carries a stable
    machine-readable [code], the pipeline [phase] it arose in, a
    one-line message, and key/value [context] rendered in verbose mode.

    The idiom is exception-at-the-point, result-at-the-boundary: deep
    pipeline code raises {!Error}, public entry points catch it and
    return [('a, t) result]. {!exit_code} gives the CLI a distinct exit
    status per phase (usage 2, budget 3, scheduling 4, verification 5,
    codegen 6). *)

type phase = Usage | Budget | Scheduling | Verification | Codegen

type t = {
  code : string;  (** stable machine-readable code, e.g. ["sched.no-hyperplane"] *)
  phase : phase;
  message : string;  (** one-line human-readable description *)
  context : (string * string) list;  (** extra detail for verbose output *)
}

exception Error of t

val make :
  ?context:(string * string) list -> phase:phase -> code:string -> string -> t

(** Raise {!Error} with a fresh diagnostic. *)
val fail :
  ?context:(string * string) list -> phase:phase -> code:string -> string -> 'a

(** [protect f] runs [f ()], converting a raised {!Error} into
    [Error d]. Other exceptions propagate. *)
val protect : (unit -> 'a) -> ('a, t) result

val phase_name : phase -> string

(** CLI exit status for a diagnostic (2–6, by phase). *)
val exit_code : t -> int

val pp : Format.formatter -> t -> unit

(** Like {!pp} plus one indented [key: value] line per context entry. *)
val pp_verbose : Format.formatter -> t -> unit
