(* Tests for lib/analysis (wisecheck).

   Two kinds of evidence:
   - legitimate pipelines certify with zero error-severity findings;
   - seeded bugs — a flipped parallel mark, a widened / narrowed loop
     bound, a dropped guard row — are each reported with the exact
     finding kind, severity and location. *)

open Codegen

(* --- tiny programs --------------------------------------------------------- *)

(* a[i] = a[i-1] + b[i]: the outer loop carries a flow dependence *)
let recurrence () =
  let open Scop.Build in
  let ctx = create ~name:"rec" ~params:[ ("N", 12) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n ] in
  let b = array ctx "B" [ n ] in
  loop ctx "i" ~lb:(ci 1)
    ~ub:(n -~ ci 1)
    (fun i -> assign ctx "S0" a [ i ] (a.%([ i -~ ci 1 ]) +: b.%([ i ])));
  finish ctx

(* c[i] = b[i]: fully parallel *)
let copy () =
  let open Scop.Build in
  let ctx = create ~name:"copy" ~params:[ ("N", 12) ] in
  let n = param ctx "N" in
  let b = array ctx "B" [ n ] in
  let c = array ctx "C" [ n ] in
  loop ctx "i" ~lb:(ci 0)
    ~ub:(n -~ ci 1)
    (fun i -> assign ctx "S0" c [ i ] (b.%([ i ])));
  finish ctx

(* an imperfect nest: S1 sits one level shallower than S0, so its
   instance carries a constant-row guard at loop level 1 *)
let imperfect () =
  let open Scop.Build in
  let ctx = create ~name:"imp" ~params:[ ("N", 10) ] in
  let n = param ctx "N" in
  let a = array ctx "A" [ n; n ] in
  let c = array ctx "C" [ n ] in
  loop ctx "i" ~lb:(ci 0)
    ~ub:(n -~ ci 1)
    (fun i ->
      loop ctx "j" ~lb:(ci 0)
        ~ub:(n -~ ci 1)
        (fun j -> assign ctx "S0" a [ i; j ] (a.%([ i; j ]) +: f 1.0)));
  loop ctx "i" ~lb:(ci 0)
    ~ub:(n -~ ci 1)
    (fun i -> assign ctx "S1" c [ i ] (f 2.0));
  finish ctx

(* t overwritten before any read: S0 is a dead write; S0 -> S2 is
   transitively implied via S1 *)
let chain () =
  let open Scop.Build in
  let ctx = create ~name:"chain" ~params:[ ("N", 10) ] in
  let n = param ctx "N" in
  let b = array ctx "B" [ n ] in
  let t = array ctx "T" [ n ] in
  let u = array ctx "U" [ n ] in
  let v = array ctx "V" [ n ] in
  let full body = loop ctx "i" ~lb:(ci 0) ~ub:(n -~ ci 1) body in
  full (fun i -> assign ctx "S0" t [ i ] (b.%([ i ])));
  full (fun i -> assign ctx "S1" u [ i ] (t.%([ i ])));
  full (fun i -> assign ctx "S2" v [ i ] (t.%([ i ]) +: u.%([ i ])));
  finish ctx

let dead_write () =
  let open Scop.Build in
  let ctx = create ~name:"dead" ~params:[ ("N", 10) ] in
  let n = param ctx "N" in
  let b = array ctx "B" [ n ] in
  let c = array ctx "C" [ n ] in
  let t = array ctx "T" [ n ] in
  let full body = loop ctx "i" ~lb:(ci 0) ~ub:(n -~ ci 1) body in
  full (fun i -> assign ctx "S0" t [ i ] (b.%([ i ])));
  full (fun i -> assign ctx "S1" t [ i ] (c.%([ i ])));
  finish ctx

(* --- helpers --------------------------------------------------------------- *)

let identity_pipeline prog =
  let deps = Deps.Dep.analyze prog in
  let sched = Scan.identity_schedule prog in
  let ast = Scan.generate ~prog ~sched ~deps in
  (deps, sched, ast)

let certify prog (deps, sched, ast) =
  Analysis.Wisecheck.certify prog deps sched ast

let find_kind kind (r : Analysis.Wisecheck.report) =
  List.filter
    (fun (f : Analysis.Finding.t) -> f.Analysis.Finding.kind = kind)
    r.Analysis.Wisecheck.findings

let check_no_errors what (r : Analysis.Wisecheck.report) =
  Alcotest.(check int) (what ^ ": no error findings") 0 r.Analysis.Wisecheck.errors

(* --- clean pipelines certify ------------------------------------------------ *)

let test_clean_identity () =
  List.iter
    (fun prog ->
      let r = certify prog (identity_pipeline prog) in
      check_no_errors prog.Scop.Program.name r)
    [ recurrence (); copy (); imperfect (); chain (); dead_write () ]

let test_clean_scheduled () =
  let prog = Kernels.Gemver.program ~n:10 () in
  let res = Pluto.Scheduler.run Fusion.Wisefuse.config prog in
  let ast = Scan.of_result res in
  let r =
    certify prog
      (res.Pluto.Scheduler.all_deps, res.Pluto.Scheduler.sched, ast)
  in
  check_no_errors "gemver/wisefuse" r

(* --- seeded bugs ------------------------------------------------------------ *)

(* flip the carried outer loop of the recurrence to Parallel *)
let test_seeded_parallel_flip () =
  let prog = recurrence () in
  let deps, sched, ast = identity_pipeline prog in
  (* baseline: not parallel, and no racy finding *)
  let base = certify prog (deps, sched, ast) in
  Alcotest.(check int)
    "baseline has no racy finding" 0
    (List.length (find_kind Analysis.Finding.Racy_parallel base));
  let flipped =
    Ast.map_loops
      (fun l -> if l.Ast.level = 0 then { l with Ast.par = Ast.Parallel } else l)
      ast
  in
  let r = certify prog (deps, sched, flipped) in
  match find_kind Analysis.Finding.Racy_parallel r with
  | [ f ] ->
    Alcotest.(check bool)
      "error severity" true
      (f.Analysis.Finding.severity = Analysis.Finding.Error);
    Alcotest.(check (option int)) "at loop level 0" (Some 0) f.Analysis.Finding.level;
    Alcotest.(check (list int)) "on S0" [ 0 ] f.Analysis.Finding.stmts;
    Alcotest.(check bool)
      "carries the offending dependence" true
      (f.Analysis.Finding.dep <> None)
  | fs ->
    Alcotest.failf "expected exactly one racy-parallel finding, got %d"
      (List.length fs)

(* shift every upper bound of the outermost loop by +1 iteration *)
let widen_ub delta ast =
  Ast.map_loops
    (fun l ->
      if l.Ast.level <> 0 then l
      else
        {
          l with
          Ast.ub_groups =
            List.map
              (List.map (fun (b : Ast.bound) ->
                   let num = Array.copy b.num in
                   let k = Array.length num - 1 in
                   num.(k) <- num.(k) + (delta * b.den);
                   { b with Ast.num }))
              l.Ast.ub_groups;
        })
    ast

let test_seeded_widened_bound () =
  let prog = copy () in
  let deps, sched, ast = identity_pipeline prog in
  let base = certify prog (deps, sched, ast) in
  Alcotest.(check int)
    "baseline scans tightly" 0
    (List.length (find_kind Analysis.Finding.Loose_bounds base));
  let r = certify prog (deps, sched, widen_ub 1 ast) in
  match find_kind Analysis.Finding.Loose_bounds r with
  | f :: _ ->
    Alcotest.(check bool)
      "warning severity" true
      (f.Analysis.Finding.severity = Analysis.Finding.Warning);
    Alcotest.(check (list int)) "on S0" [ 0 ] f.Analysis.Finding.stmts
  | [] -> Alcotest.fail "widened bound not reported as loose-bounds"

let test_seeded_narrowed_bound () =
  let prog = copy () in
  let deps, sched, ast = identity_pipeline prog in
  let r = certify prog (deps, sched, widen_ub (-1) ast) in
  match find_kind Analysis.Finding.Dropped_point r with
  | f :: _ ->
    Alcotest.(check bool)
      "error severity" true
      (f.Analysis.Finding.severity = Analysis.Finding.Error);
    Alcotest.(check (option int)) "at loop level 0" (Some 0) f.Analysis.Finding.level;
    Alcotest.(check (list int)) "on S0" [ 0 ] f.Analysis.Finding.stmts
  | [] -> Alcotest.fail "narrowed bound not reported as dropped-point"

(* drop S1's constant-row guard in the imperfect nest *)
let test_seeded_dropped_guard () =
  let prog = imperfect () in
  let deps, sched, ast = identity_pipeline prog in
  let base = certify prog (deps, sched, ast) in
  Alcotest.(check int)
    "baseline guards consistent" 0
    (List.length (find_kind Analysis.Finding.Guard_mismatch base));
  (* sanity: the seeded mutation actually removes something *)
  let dropped = ref false in
  let mutated =
    Ast.map_instances
      (fun inst ->
        if inst.Ast.stmt_id = 1 && Array.length inst.Ast.const_rows > 0 then begin
          dropped := true;
          { inst with Ast.const_rows = [||] }
        end
        else inst)
      ast
  in
  Alcotest.(check bool) "S1 had a guard row to drop" true !dropped;
  let r = certify prog (deps, sched, mutated) in
  match find_kind Analysis.Finding.Guard_mismatch r with
  | f :: _ ->
    Alcotest.(check bool)
      "error severity" true
      (f.Analysis.Finding.severity = Analysis.Finding.Error);
    Alcotest.(check (list int)) "on S1" [ 1 ] f.Analysis.Finding.stmts
  | [] -> Alcotest.fail "dropped guard row not reported as guard-mismatch"

(* --- DDG lints -------------------------------------------------------------- *)

let test_lints () =
  let prog = chain () in
  let r = certify prog (identity_pipeline prog) in
  (match find_kind Analysis.Finding.Redundant_dependence r with
  | f :: _ ->
    Alcotest.(check (list int)) "S0 -> S2 redundant" [ 0; 2 ]
      f.Analysis.Finding.stmts
  | [] -> Alcotest.fail "transitive edge not reported");
  let prog = dead_write () in
  let r = certify prog (identity_pipeline prog) in
  match find_kind Analysis.Finding.Dead_write r with
  | f :: _ ->
    Alcotest.(check (list int)) "S0 is dead" [ 0 ] f.Analysis.Finding.stmts
  | [] -> Alcotest.fail "overwritten unread write not reported"

(* --- reductions (wisereduce) ------------------------------------------------ *)

(* s[0] = s[0] + b[i]: the canonical scalar reduction *)
let scalar_sum () =
  let open Scop.Build in
  let ctx = create ~name:"sum" ~params:[ ("N", 12) ] in
  let n = param ctx "N" in
  let s = array ctx "S" [ ci 1 ] in
  let b = array ctx "B" [ n ] in
  loop ctx "i" ~lb:(ci 0)
    ~ub:(n -~ ci 1)
    (fun i -> assign ctx "S0" s [ ci 0 ] (s.%([ ci 0 ]) +: b.%([ i ])));
  finish ctx

(* one statement of the given rhs shape, accumulating into s[0] *)
let shape name rhs_of =
  let open Scop.Build in
  let ctx = create ~name ~params:[ ("N", 12) ] in
  let n = param ctx "N" in
  let s = array ctx "S" [ ci 1 ] in
  let b = array ctx "B" [ n ] in
  loop ctx "i" ~lb:(ci 0)
    ~ub:(n -~ ci 1)
    (fun i -> assign ctx "S0" s [ ci 0 ] (rhs_of s b i));
  finish ctx

let detect prog =
  let deps = Deps.Dep.analyze prog in
  Analysis.Reduction.detect prog deps

let reject_reason (findings : Analysis.Finding.t list) =
  match
    List.filter
      (fun (f : Analysis.Finding.t) ->
        f.Analysis.Finding.kind = Analysis.Finding.Reduction_rejected)
      findings
  with
  | [ f ] -> List.assoc_opt "reason" f.Analysis.Finding.context
  | fs ->
    Alcotest.failf "expected exactly one reduction.rejected, got %d"
      (List.length fs)

let test_reduction_detected () =
  let prog = scalar_sum () in
  let facts, findings = detect prog in
  (match facts with
  | [ fact ] ->
    Alcotest.(check int) "on S0" 0 fact.Analysis.Reduction_info.stmt;
    Alcotest.(check string) "operator +" "+"
      (Analysis.Reduction_info.op_name fact);
    Alcotest.(check bool) "covers its self-dependences" true
      (fact.Analysis.Reduction_info.covered <> []);
    Alcotest.(check (list int)) "chain carried by loop 0" [ 0 ]
      fact.Analysis.Reduction_info.chain_levels
  | fs -> Alcotest.failf "expected exactly one fact, got %d" (List.length fs));
  Alcotest.(check int) "one detected finding" 1
    (List.length
       (List.filter
          (fun (f : Analysis.Finding.t) ->
            f.Analysis.Finding.kind = Analysis.Finding.Reduction_detected)
          findings));
  (* min/max chains prove too (gemver-style nested chains flatten) *)
  let open Scop.Build in
  List.iter
    (fun (nm, rhs) ->
      let facts, _ = detect (shape nm rhs) in
      Alcotest.(check int) (nm ^ " proves") 1 (List.length facts))
    [ ("minred", fun s b i -> min_ (s.%([ ci 0 ])) (b.%([ i ])));
      ("mulred", fun s b i -> s.%([ ci 0 ]) *: b.%([ i ]));
      ( "nested",
        fun s b i -> s.%([ ci 0 ]) +: b.%([ i ]) +: b.%([ i ]) ) ]

(* the four seeded near-misses, each with its exact rejection reason *)
let test_reduction_rejections () =
  let open Scop.Build in
  (* a) non-associative operator on the accumulator *)
  let _, fs = detect (shape "sub" (fun s b i -> s.%([ ci 0 ]) -: b.%([ i ]))) in
  Alcotest.(check (option string)) "a - x rejected"
    (Some "non-associative-op") (reject_reason fs);
  (* b) mismatched accumulator subscripts (a recurrence, not a reduction) *)
  let recur =
    let ctx = create ~name:"recur" ~params:[ ("N", 12) ] in
    let n = param ctx "N" in
    let a = array ctx "A" [ n ] in
    let b = array ctx "B" [ n ] in
    loop ctx "i" ~lb:(ci 1)
      ~ub:(n -~ ci 1)
      (fun i -> assign ctx "S0" a [ i ] (a.%([ i -~ ci 1 ]) +: b.%([ i ])));
    finish ctx
  in
  let _, fs = detect recur in
  Alcotest.(check (option string)) "a[i-1] read rejected"
    (Some "subscript-mismatch") (reject_reason fs);
  (* c) accumulator read inside the combined expression *)
  let _, fs =
    detect
      (shape "accread" (fun s b i ->
           s.%([ ci 0 ]) +: (s.%([ ci 0 ]) *: b.%([ i ]))))
  in
  Alcotest.(check (option string)) "acc inside e rejected"
    (Some "accumulator-read") (reject_reason fs);
  (* d) an interleaved writer mid-chain *)
  let interleaved =
    let ctx = create ~name:"inter" ~params:[ ("N", 12) ] in
    let n = param ctx "N" in
    let s = array ctx "S" [ ci 1 ] in
    let b = array ctx "B" [ n ] in
    let c = array ctx "C" [ n ] in
    loop ctx "i" ~lb:(ci 0)
      ~ub:(n -~ ci 1)
      (fun i ->
        assign ctx "S0" s [ ci 0 ] (s.%([ ci 0 ]) +: b.%([ i ]));
        assign ctx "S1" s [ ci 0 ] (c.%([ i ])));
    finish ctx
  in
  let facts, fs = detect interleaved in
  Alcotest.(check int) "no fact for the broken chain" 0 (List.length facts);
  Alcotest.(check (option string)) "mid-chain writer rejected"
    (Some "interleaved-writer") (reject_reason fs)

(* dot through the reduction-aware scheduler: the fused loop comes out
   Parallel_reduction, and wisecheck certifies it "up to reduction" *)
let test_scheduled_reduction () =
  let prog = Kernels.Dot.program ~n:12 () in
  let o = Fusion.Resilient.optimize ~reductions:true prog in
  let res = o.Fusion.Resilient.result in
  let has_reduction_loop = ref false in
  Ast.iter_loops
    (fun l -> if l.Ast.par = Ast.Parallel_reduction then has_reduction_loop := true)
    o.Fusion.Resilient.ast;
  Alcotest.(check bool) "a loop is marked parallel-reduction" true
    !has_reduction_loop;
  let r =
    certify prog
      (res.Pluto.Scheduler.all_deps, res.Pluto.Scheduler.sched,
       o.Fusion.Resilient.ast)
  in
  check_no_errors "dot/reductions" r;
  Alcotest.(check bool) "certified up to reduction" true
    (find_kind Analysis.Finding.Reduction_certified r <> []);
  (* and with the flag off: no tagging, no reduction loops, still clean *)
  let off = Fusion.Resilient.optimize prog in
  let any_reduction = ref false in
  Ast.iter_loops
    (fun l -> if l.Ast.par = Ast.Parallel_reduction then any_reduction := true)
    off.Fusion.Resilient.ast;
  Alcotest.(check bool) "off: no reduction loops" false !any_reduction

(* a Parallel_reduction mark the detector cannot justify must still be
   a race.parallel error — a flipped mark earns no leniency *)
let test_seeded_reduction_flip () =
  let prog = recurrence () in
  let deps, sched, ast = identity_pipeline prog in
  let flipped =
    Ast.map_loops
      (fun l ->
        if l.Ast.level = 0 then { l with Ast.par = Ast.Parallel_reduction }
        else l)
      ast
  in
  let r = certify prog (deps, sched, flipped) in
  (match find_kind Analysis.Finding.Racy_parallel r with
  | [ f ] ->
    Alcotest.(check bool) "error severity" true
      (f.Analysis.Finding.severity = Analysis.Finding.Error)
  | fs ->
    Alcotest.failf "expected exactly one racy-parallel finding, got %d"
      (List.length fs));
  Alcotest.(check int) "and no certification" 0
    (List.length (find_kind Analysis.Finding.Reduction_certified r))

(* dead-write suppression: a reduction accumulator overwritten later is
   not a dead write — the proof exempts it *)
let test_reduction_dead_write_suppressed () =
  let open Scop.Build in
  let prog =
    let ctx = create ~name:"accdead" ~params:[ ("N", 12) ] in
    let n = param ctx "N" in
    let s = array ctx "S" [ ci 1 ] in
    let b = array ctx "B" [ n ] in
    let c = array ctx "C" [ n ] in
    loop ctx "i" ~lb:(ci 0)
      ~ub:(n -~ ci 1)
      (fun i -> assign ctx "S0" s [ ci 0 ] (s.%([ ci 0 ]) +: b.%([ i ])));
    loop ctx "i" ~lb:(ci 0) ~ub:(ci 0)
      (fun i -> assign ctx "S1" s [ i ] (c.%([ i ])));
    finish ctx
  in
  let deps = Deps.Dep.analyze prog in
  let is_dead (f : Analysis.Finding.t) =
    f.Analysis.Finding.kind = Analysis.Finding.Dead_write
  in
  (* without facts the accumulator looks dead (self-flow only, then
     fully overwritten): the regression the reduction facts fix *)
  let bare = Analysis.Lints.check prog deps in
  Alcotest.(check bool) "flagged without facts" true
    (List.exists
       (fun f -> is_dead f && f.Analysis.Finding.stmts = [ 0 ])
       bare);
  let facts, _ = Analysis.Reduction.detect prog deps in
  Alcotest.(check bool) "the accumulator proves" true (facts <> []);
  let informed = Analysis.Lints.check ~facts prog deps in
  Alcotest.(check bool) "suppressed with facts" false
    (List.exists
       (fun f -> is_dead f && f.Analysis.Finding.stmts = [ 0 ])
       informed);
  (* wisecheck derives the facts itself: end to end, no dead write *)
  let r = certify prog (identity_pipeline prog) in
  Alcotest.(check bool) "wisecheck suppresses end to end" false
    (List.exists
       (fun (f : Analysis.Finding.t) ->
         is_dead f && f.Analysis.Finding.stmts = [ 0 ])
       r.Analysis.Wisecheck.findings)

(* --- JSON round-trip --------------------------------------------------------- *)

(* every finding's JSON parses back, and warning-severity findings carry
   their witness context just like errors do *)
let test_json_round_trip () =
  let prog = copy () in
  let deps, sched, ast = identity_pipeline prog in
  let r = certify prog (deps, sched, widen_ub 1 ast) in
  (match find_kind Analysis.Finding.Loose_bounds r with
  | f :: _ ->
    Alcotest.(check bool) "warning carries a witness" true
      (List.mem_assoc "witness" f.Analysis.Finding.context)
  | [] -> Alcotest.fail "widened bound not reported as loose-bounds");
  List.iter
    (fun (f : Analysis.Finding.t) ->
      let line = Obs.Json.to_string (Analysis.Finding.json prog f) in
      (* the code as the one-line rendering prints it: "[code]" *)
      let code =
        let s = Format.asprintf "%a" (Analysis.Finding.pp prog) f in
        let i = String.index s '[' in
        String.sub s (i + 1) (String.index s ']' - i - 1)
      in
      match Obs.Json.parse line with
      | Error msg -> Alcotest.failf "finding JSON does not parse: %s" msg
      | Ok j ->
        Alcotest.(check (option string))
          "code survives"
          (Some code)
          (Option.bind (Obs.Json.member "code" j) Obs.Json.to_string_opt);
        (match f.Analysis.Finding.context with
        | [] -> ()
        | (k, _) :: _ ->
          Alcotest.(check bool)
            ("context key ctx_" ^ k ^ " survives")
            true
            (Obs.Json.member ("ctx_" ^ k) j <> None)))
    r.Analysis.Wisecheck.findings

(* lost parallelism: a parallel loop demoted to sequential is flagged *)
let test_lost_parallelism () =
  let prog = copy () in
  let deps, sched, ast = identity_pipeline prog in
  let demoted =
    Ast.map_loops (fun l -> { l with Ast.par = Ast.Sequential }) ast
  in
  let r = certify prog (deps, sched, demoted) in
  match find_kind Analysis.Finding.Lost_parallelism r with
  | f :: _ ->
    Alcotest.(check bool)
      "warning severity" true
      (f.Analysis.Finding.severity = Analysis.Finding.Warning)
  | [] -> Alcotest.fail "sequential race-free loop not reported"

let () =
  Alcotest.run "analysis"
    [
      ( "certification",
        [
          Alcotest.test_case "identity pipelines" `Quick test_clean_identity;
          Alcotest.test_case "scheduled gemver" `Quick test_clean_scheduled;
        ] );
      ( "seeded bugs",
        [
          Alcotest.test_case "parallel flip" `Quick test_seeded_parallel_flip;
          Alcotest.test_case "widened bound" `Quick test_seeded_widened_bound;
          Alcotest.test_case "narrowed bound" `Quick test_seeded_narrowed_bound;
          Alcotest.test_case "dropped guard" `Quick test_seeded_dropped_guard;
        ] );
      ( "lints",
        [
          Alcotest.test_case "redundant + dead write" `Quick test_lints;
          Alcotest.test_case "lost parallelism" `Quick test_lost_parallelism;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "detected" `Quick test_reduction_detected;
          Alcotest.test_case "seeded rejections" `Quick
            test_reduction_rejections;
          Alcotest.test_case "scheduled dot" `Quick test_scheduled_reduction;
          Alcotest.test_case "flipped mark is racy" `Quick
            test_seeded_reduction_flip;
          Alcotest.test_case "dead-write suppression" `Quick
            test_reduction_dead_write_suppressed;
        ] );
      ( "json",
        [ Alcotest.test_case "round trip + witness" `Quick test_json_round_trip ] );
    ]
