(* Additional Polybench kernels, beyond Table 2.

   Section 5.3: "for other benchmarks from the Polybench benchmark
   suite, wisefuse achieves the same fusion partitioning as smartfuse,
   proving the effectiveness of the heuristics employed by wisefuse
   even for small kernel programs". These kernels back that claim in
   the bench harness (experiment "extras"). *)

open Scop.Build

(* jacobi-2d: a time-iterated 5-point stencil with a copy-back
   statement; the t loop is serial, the space loops parallel; fusion of
   S1 and S2 inside a timestep is the interesting decision. *)
let jacobi2d () =
  let ctx = create ~name:"jacobi2d" ~params:[ ("N", 14); ("T", 6) ] in
  let n = param ctx "N" in
  let t_ = param ctx "T" in
  let ext = n +~ ci 2 in
  let a = array ctx "A" [ ext; ext ] in
  let b = array ctx "B" [ ext; ext ] in
  let one = ci 1 in
  loop ctx "t" ~lb:(ci 0) ~ub:(t_ -~ ci 1) (fun _t ->
      loop ctx "i" ~lb:one ~ub:n (fun i ->
          loop ctx "j" ~lb:one ~ub:n (fun j ->
              assign ctx "S1" b [ i; j ]
                ((a.%([ i; j ])
                 +: a.%([ i; j -~ one ])
                 +: a.%([ i; j +~ one ])
                 +: a.%([ i +~ one; j ])
                 +: a.%([ i -~ one; j ]))
                *: f 0.2)));
      loop ctx "i" ~lb:one ~ub:n (fun i ->
          loop ctx "j" ~lb:one ~ub:n (fun j ->
              assign ctx "S2" a [ i; j ] (b.%([ i; j ])))));
  finish ctx

(* mvt: two independent matrix-vector products, one transposed -
   fusable only with per-statement loop permutation. *)
let mvt () =
  let ctx = create ~name:"mvt" ~params:[ ("N", 40) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n ] in
  let x1 = array ctx "x1" [ n ] and x2 = array ctx "x2" [ n ] in
  let y1 = array ctx "y1" [ n ] and y2 = array ctx "y2" [ n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S1" x1 [ i ] (x1.%([ i ]) +: (a.%([ i; j ]) *: y1.%([ j ])))));
  loop ctx "i" ~lb ~ub (fun i ->
      loop ctx "j" ~lb ~ub (fun j ->
          assign ctx "S2" x2 [ i ] (x2.%([ i ]) +: (a.%([ j; i ]) *: y2.%([ j ])))));
  finish ctx

(* doitgen: a contraction followed by a copy-back, inside two outer
   loops - the copy-back statement blocks naive fusion. *)
let doitgen () =
  let ctx = create ~name:"doitgen" ~params:[ ("N", 10) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n; n ] in
  let c4 = array ctx "C4" [ n; n ] in
  let sum = array ctx "sum" [ n; n; n ] in
  let lb = ci 0 and ub = n -~ ci 1 in
  loop ctx "r" ~lb ~ub (fun r ->
      loop ctx "q" ~lb ~ub (fun q ->
          loop ctx "p" ~lb ~ub (fun p ->
              loop ctx "s" ~lb ~ub (fun s ->
                  assign ctx "S1" sum [ r; q; p ]
                    (sum.%([ r; q; p ]) +: (a.%([ r; q; s ]) *: c4.%([ s; p ])))))));
  loop ctx "r" ~lb ~ub (fun r ->
      loop ctx "q" ~lb ~ub (fun q ->
          loop ctx "p" ~lb ~ub (fun p ->
              assign ctx "S2" a [ r; q; p ] (sum.%([ r; q; p ])))));
  finish ctx

(* seidel-like in-place sweep: a single statement whose dependences
   force a serial outer loop; exercises the scheduler on tight
   recurrences. *)
let sweep2d () =
  let ctx = create ~name:"sweep2d" ~params:[ ("N", 16) ] in
  let n = param ctx "N" in
  let ext = n +~ ci 2 in
  let a = array ctx "A" [ ext; ext ] in
  let one = ci 1 in
  loop ctx "i" ~lb:one ~ub:n (fun i ->
      loop ctx "j" ~lb:one ~ub:n (fun j ->
          assign ctx "S1" a [ i; j ]
            ((a.%([ i -~ one; j ]) +: a.%([ i; j -~ one ]) +: a.%([ i; j ]))
            *: f 0.333)));
  finish ctx

let all =
  [ ("jacobi2d", jacobi2d); ("mvt", mvt); ("doitgen", doitgen); ("sweep2d", sweep2d) ]
