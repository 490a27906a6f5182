(** Rectangular loop tiling of permutable bands (the transformation the
    polyhedral framework composes on top of fusion; Section 2.1 of the
    paper lists tiling among the transformations captured by the
    multidimensional affine transform).

    A {e band} is a maximal chain of directly nested loops such that
    every dependence alive at the band's first row has a non-negative
    δ at {e every} row of the band — the classic full-permutability
    condition, under which rectangular tiling is always legal. Bands of
    length ≥ 2 are strip-mined: tile loops (stepping over tile origins)
    are introduced above the band and the original loops become point
    loops clamped to their tile.

    Loops with divided bounds (den ≠ 1) or with bounds referring to
    other loops {e inside} the band (non-rectangular within the band,
    e.g. lu's triangular loops after skewing) are conservatively left
    untiled. *)

(** [of_result ?size res] generates the loop AST of [res] and tiles
    every eligible band. [size] is the tile edge (default 4 — matched to
    the scaled caches of {!Machine.Perf}). The result executes exactly
    the same statement instances in a reordered-but-legal order. *)
val of_result : ?size:int -> Pluto.Scheduler.result -> Ast.node
