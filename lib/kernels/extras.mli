(** Additional Polybench kernels (beyond Table 2), backing the paper's
    claim that wisefuse matches smartfuse's partitionings on small
    kernel programs (Section 5.3). *)

(** All extras with default sizes: [jacobi2d] (time-iterated 5-point
    stencil with copy-back), [mvt] (two matrix-vector products, one
    transposed), [doitgen] (tensor contraction with copy-back under two
    outer loops) and [sweep2d] (in-place Gauss-Seidel-style sweep, a
    tight recurrence). *)
val all : (string * (unit -> Scop.Program.t)) list
