(** Emission of complete, compilable C programs.

    This is the "source-to-source" output of the tool: a self-contained
    C file with array declarations, deterministic initialization, the
    generated loop nest (OpenMP pragmas on parallel loops, `ceild` /
    `floord` helpers for divided bounds), and a checksum printout so
    two emitted variants of the same program can be diffed by running
    them. *)

(** [program ~name prog ast] renders a full C translation unit. The
    statement bodies are emitted with the original iterator names bound
    via the inverse schedule (guards included), so any legal schedule -
    shifted, permuted, partially fused - emits correct C. *)
val program : name:string -> Scop.Program.t -> Ast.node -> string
