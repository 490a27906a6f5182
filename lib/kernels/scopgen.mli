(** Deterministic large-SCoP generator for scale testing.

    The registry kernels top out around 20 statements; the scheduling
    engines diverge far beyond that. This generator builds programs of
    hundreds of statements in three dependence shapes, the same
    programs for the fuzz harness ([FUZZ_STMTS]), the engine tests and
    wisebench's [scale] workload:

    - {e chain}: one depth-1 nest per statement, statement [k]
      consuming what [k-1] produced — a single long producer-consumer
      chain (one dependence cluster spanning the whole program);
    - {e stencil}: like chain, but each statement is a 3-point stencil
      sweep, so every dependence also carries the ±1 shifts that force
      non-trivial hyperplanes;
    - {e blocked}: depth-2 nests of several statements each, dense
      producer-consumer dependences inside a nest and sparse ones
      across — many small clusters instead of one big one.

    Generation is deterministic: same shape, [stmts] and [n] — same
    program, byte for byte. *)

type shape = Chain | Stencil | Blocked

(** ["chain"], ["stencil"], ["blocked"]. *)
val shape_name : shape -> string

(** [generate ?n shape ~stmts] builds a program of exactly [stmts]
    statements over size-[n] arrays (default 16; loops run over
    [1, n-2]).
    @raise Invalid_argument if [stmts < 1]. *)
val generate : ?n:int -> shape -> stmts:int -> Scop.Program.t
