(** Typed findings of the wisecheck static-analysis pass.

    A finding is a certified fact about a generated loop AST (or the
    dependence graph behind it): a race behind a [Parallel] mark, a
    dropped iteration-domain point, an inconsistent instance guard,
    provably lost parallelism, dead scanning, or a DDG lint. Findings
    carry the statements, loop level and dependence they are about, and
    render through [Pluto.Diagnostics]-style context so the CLI shows
    them uniformly with pipeline errors. *)

type severity = Error | Warning | Info

type kind =
  | Racy_parallel
      (** a loop marked [Parallel] carries a cross-iteration dependence
          — racy generated code (error) *)
  | Lost_parallelism
      (** a loop marked [Forward]/[Sequential] is provably race-free:
          parallelism the pipeline left on the table (warning) *)
  | Dropped_point
      (** a statement's iteration-domain point falls outside the
          emitted loop bounds: the generated code skips work (error) *)
  | Loose_bounds
      (** the emitted bounds scan guard-passing points that invert
          outside the statement's domain: wasted iterations (warning) *)
  | Guard_mismatch
      (** a statement instance's inversion/guard data (selected levels,
          inverse matrix, constant-row guards) is inconsistent with the
          schedule (error) *)
  | Dead_scan
      (** a statement's guarded body is provably empty for all
          parameter values above the floor (warning) *)
  | Redundant_dependence
      (** a DDG edge implied by transitive composition of other edges
          (info) *)
  | Dead_write
      (** a statement's written values are never read and are
          overwritten by a later statement (warning) *)
  | Unreachable_statement
      (** a statement that no surviving (live-out) value depends on
          (info) *)
  | Reduction_detected
      (** a statement is a proven reduction: associative-commutative
          read-modify-write of one accumulator cell, combined expression
          accumulator-free, no interleaved writer (info) *)
  | Reduction_rejected
      (** a near-miss reduction shape with the exact reason it failed
          the proof — context key ["reason"] (info) *)
  | Reduction_certified
      (** a [Parallel_reduction] loop whose every carried conflict is
          covered by an independently re-derived reduction proof:
          race-free up to reduction reassociation (info) *)

type t = {
  kind : kind;
  severity : severity;
  stmts : int list;  (** statement ids involved, ascending *)
  level : int option;  (** loop level (loop-variable index), if any *)
  dep : Deps.Dep.t option;  (** offending dependence, if any *)
  message : string;
  context : (string * string) list;
}

(** [make kind ...] with the kind's canonical severity. *)
val make :
  ?stmts:int list ->
  ?level:int ->
  ?dep:Deps.Dep.t ->
  ?context:(string * string) list ->
  kind ->
  string ->
  t

(** [(errors, warnings, infos)]. *)
val count : t list -> int * int * int

(** Sort by severity (errors first), then by statement ids. *)
val by_severity : t list -> t list

(** One-line rendering: [severity [code] message (S0, S1; level 2)],
    where [code] is the kind's stable machine-readable code, e.g.
    ["race.parallel"]. *)
val pp : Scop.Program.t -> Format.formatter -> t -> unit

(** Structured JSON object for a finding (shared {!Obs.Json} writer). *)
val json : Scop.Program.t -> t -> Obs.Json.t
