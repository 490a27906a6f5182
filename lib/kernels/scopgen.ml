(* Deterministic large-SCoP generator: programs of hundreds of
   statements in three dependence shapes, shared by the fuzz harness
   and the bench scale sweep. Every statement writes its own array and
   reads its predecessor's, so the dependence count stays linear in the
   statement count — the regime of unrolled / aggressively inlined
   bodies that motivates the lp-dfp engine. (Recycling arrays from a
   small pool instead makes the dependence count quadratic, and the
   dependence processing shared by every engine drowns out the
   per-level solver being measured.) *)

type shape = Chain | Stencil | Blocked

let shape_name = function
  | Chain -> "chain"
  | Stencil -> "stencil"
  | Blocked -> "blocked"

let block = 5 (* statements per nest in the blocked shape *)

let generate ?(n = 16) shape ~stmts =
  if stmts < 1 then invalid_arg "Scopgen.generate: stmts < 1";
  let open Scop.Build in
  let ctx =
    create
      ~name:(Printf.sprintf "%s%d" (shape_name shape) stmts)
      ~params:[ ("N", n) ]
  in
  let np = param ctx "N" in
  let lb = ci 1 and ub = np -~ ci 2 in
  let arr1 a = array ctx (Printf.sprintf "A%d" a) [ np ] in
  let arr2 a = array ctx (Printf.sprintf "A%d" a) [ np; np ] in
  (match shape with
  | Chain ->
    let arrs = Array.init (stmts + 1) arr1 in
    for k = 0 to stmts - 1 do
      let src = arrs.(k) and dst = arrs.(k + 1) in
      loop ctx "i" ~lb ~ub (fun i ->
          assign ctx (Printf.sprintf "S%d" k) dst [ i ] (src.%([ i ]) +: f 1.0))
    done
  | Stencil ->
    let arrs = Array.init (stmts + 1) arr1 in
    for k = 0 to stmts - 1 do
      let src = arrs.(k) and dst = arrs.(k + 1) in
      loop ctx "i" ~lb ~ub (fun i ->
          assign ctx (Printf.sprintf "S%d" k) dst [ i ]
            (src.%([ i -~ ci 1 ]) +: src.%([ i ]) +: src.%([ i +~ ci 1 ])))
    done
  | Blocked ->
    let arrs = Array.init (stmts + 1) arr2 in
    let k = ref 0 in
    while !k < stmts do
      let base = !k in
      let cnt = min block (stmts - base) in
      loop ctx "i" ~lb ~ub (fun i ->
          loop ctx "j" ~lb ~ub (fun j ->
              for t = 0 to cnt - 1 do
                let kk = base + t in
                let src = arrs.(kk) and dst = arrs.(kk + 1) in
                assign ctx (Printf.sprintf "S%d" kk) dst [ i; j ]
                  (src.%([ i; j ]) +: f 1.0)
              done));
      k := base + cnt
    done);
  finish ctx
