(* Tests for the machine substrate: cache simulator, interpreter,
   performance model. *)

open Machine

(* --- cache ---------------------------------------------------------------- *)

let test_cache_basics () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~addr:0);
  Alcotest.(check bool) "hit same line" true (Cache.access c ~addr:8);
  Alcotest.(check bool) "hit line edge" true (Cache.access c ~addr:63);
  Alcotest.(check bool) "miss next line" false (Cache.access c ~addr:64);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2-way set: three lines mapping to the same set evict LRU *)
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 () in
  (* set count = 1024/(64*2) = 8; stride of 8*64 = 512 hits set 0 *)
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:512);
  Alcotest.(check bool) "both resident" true (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:1024);
  (* 512 was LRU: evicted *)
  Alcotest.(check bool) "lru evicted" false (Cache.access c ~addr:512);
  Alcotest.(check bool) "mru survived... " false (Cache.access c ~addr:1024 = false)

let test_cache_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache.create: sizes must be powers of two")
    (fun () -> ignore (Cache.create ~size_bytes:1000 ~line_bytes:64 ~assoc:2 ()))

let prop_cache_vs_reference =
  (* cross-validate against a naive associative-list LRU model *)
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 4095))
    (fun addrs ->
      let c = Cache.create ~size_bytes:512 ~line_bytes:64 ~assoc:2 () in
      let nsets = 512 / (64 * 2) in
      let sets = Array.make nsets [] in
      List.for_all
        (fun addr ->
          let line = addr / 64 in
          let set = line mod nsets in
          let resident = List.mem line sets.(set) in
          (* reference update *)
          let without = List.filter (fun l -> l <> line) sets.(set) in
          let trimmed =
            if resident then without
            else if List.length without >= 2 then
              List.filteri (fun i _ -> i < List.length without - 1) without
            else without
          in
          sets.(set) <- line :: trimmed;
          Cache.access c ~addr = resident)
        addrs)

(* --- interpreter ------------------------------------------------------------ *)

let test_interp_gemver_values () =
  (* check one concrete cell against a hand computation *)
  let prog = Kernels.Gemver.program ~n:4 () in
  let params = [| 4 |] in
  let init name flat = match name with
    | "A" -> 1.0 +. float_of_int flat
    | "u1" | "v1" | "u2" | "v2" -> 0.5
    | "x" | "y" | "z" | "w" -> 1.0
    | _ -> 0.0
  in
  let mem = Machine.Interp.init_memory ~init prog ~params in
  Machine.Interp.run_original prog mem ~params;
  (* S1: A[0][0] = 1 + 0.5*0.5 + 0.5*0.5 = 1.5 *)
  let a = Machine.Interp.array_data mem "A" in
  Alcotest.(check (float 1e-9)) "A[0][0]" 1.5 a.(0);
  (* S2: x[0] = 1 + beta * sum_j A[j][0]*y[j]; column 0 of updated A:
     A[j][0] = (1 + 4j) + 0.5 -> 1.5, 5.5, 9.5, 13.5; sum = 30
     x[0] = 1 + 1.2*30 = 37; S3: x[0] += z -> 38 *)
  let x = Machine.Interp.array_data mem "x" in
  Alcotest.(check (float 1e-6)) "x[0]" 38.0 x.(0)

let test_interp_access_count () =
  let prog = Kernels.Gemver.program ~n:5 () in
  let params = [| 5 |] in
  let mem = Machine.Interp.init_memory prog ~params in
  let reads = ref 0 and writes = ref 0 in
  Machine.Interp.run_original prog mem ~params
    ~on_access:(fun kind _ ->
      match kind with
      | Machine.Interp.Read -> incr reads
      | Machine.Interp.Write -> incr writes);
  (* instances: S1,S2,S4: 25 each, S3: 5 -> writes = 80 *)
  Alcotest.(check int) "writes" 80 !writes;
  (* reads: S1 5 loads * 25; S2 3 * 25; S3 2 * 5; S4 3 * 25 = 285 *)
  Alcotest.(check int) "reads" 285 !reads

let test_interp_addresses_disjoint () =
  let prog = Kernels.Gemver.program ~n:4 () in
  let params = [| 4 |] in
  let mem = Machine.Interp.init_memory prog ~params in
  (* the byte addresses the first instance (S1 at i = j = 0) touches:
     A[0][0], u1[0], v1[0], u2[0], v2[0] *)
  let stmts = ref 0 and addrs = ref [] in
  Machine.Interp.run_original prog mem ~params
    ~on_stmt:(fun _ -> incr stmts)
    ~on_access:(fun _ addr -> if !stmts = 1 then addrs := addr :: !addrs);
  Alcotest.(check bool) "A base" true (List.mem 0 !addrs);
  Alcotest.(check bool) "u1 after A (16 cells * 8B)" true (List.mem 128 !addrs)

(* --- perf model -------------------------------------------------------------- *)

let test_perf_scales_with_cores () =
  let prog = Kernels.Advect.program ~n:16 () in
  let params = prog.Scop.Program.default_params in
  let res = Fusion.Wisefuse.run prog in
  let ast = Codegen.Scan.of_result res in
  let t1 = Perf.simulate ~config:(Perf.with_cores 1 Perf.default) prog ast ~params in
  let t8 = Perf.simulate ~config:(Perf.with_cores 8 Perf.default) prog ast ~params in
  Alcotest.(check bool) "parallel speedup" true (t8.Perf.cycles < t1.Perf.cycles);
  Alcotest.(check bool) "speedup below linear+noise" true
    (t1.Perf.cycles < 16 * t8.Perf.cycles);
  Alcotest.(check int) "same work" t1.Perf.instances t8.Perf.instances

let test_perf_sequential_flag () =
  let prog = Kernels.Advect.program ~n:12 () in
  let params = prog.Scop.Program.default_params in
  let res = Fusion.Wisefuse.run prog in
  let ast = Codegen.Scan.of_result res in
  let seq =
    Perf.simulate ~config:{ Perf.default with Perf.sequential = true } prog ast ~params
  in
  let par = Perf.simulate prog ast ~params in
  Alcotest.(check bool) "sequential slower" true (seq.Perf.cycles > par.Perf.cycles);
  Alcotest.(check int) "no barriers when sequential" 0 seq.Perf.barriers

let test_perf_pipelined_pays_barriers () =
  let prog = Kernels.Advect.program ~n:12 () in
  let params = prog.Scop.Program.default_params in
  let mf = Pluto.Scheduler.run Pluto.Scheduler.maxfuse prog in
  let wf = Fusion.Wisefuse.run prog in
  let smf = Perf.simulate prog (Codegen.Scan.of_result mf) ~params in
  let swf = Perf.simulate prog (Codegen.Scan.of_result wf) ~params in
  Alcotest.(check bool) "pipelined has more barriers" true
    (smf.Perf.barriers > swf.Perf.barriers);
  Alcotest.(check bool) "wisefuse faster (Fig 7, advect)" true
    (swf.Perf.cycles < smf.Perf.cycles)

let test_perf_fusion_improves_locality () =
  (* swim: wisefuse must beat nofuse on cache misses (the reuse claim) *)
  let prog = Kernels.Swim.program ~n:16 () in
  let params = prog.Scop.Program.default_params in
  let nf = Pluto.Scheduler.run Pluto.Scheduler.nofuse prog in
  let wf = Fusion.Wisefuse.run prog in
  let snf = Perf.simulate prog (Codegen.Scan.of_result nf) ~params in
  let swf = Perf.simulate prog (Codegen.Scan.of_result wf) ~params in
  Alcotest.(check bool) "fewer L1 misses with fusion" true
    (swf.Perf.l1_misses < snf.Perf.l1_misses);
  Alcotest.(check bool) "faster with fusion" true
    (swf.Perf.cycles < snf.Perf.cycles)

let test_perf_simd_discount () =
  (* a guard-free parallel innermost loop benefits from the simd model;
     a reduction-carrying one does not *)
  let simd4 = { Perf.default with Perf.simd_width = 4 } in
  (* advect nofuse: every nest has a parallel, guard-free inner loop *)
  let prog = Kernels.Advect.program ~n:16 () in
  let params = prog.Scop.Program.default_params in
  let res = Pluto.Scheduler.run Pluto.Scheduler.nofuse prog in
  let ast = Codegen.Scan.of_result res in
  let plain = Perf.simulate prog ast ~params in
  let simd = Perf.simulate ~config:simd4 prog ast ~params in
  Alcotest.(check bool) "simd helps stencils" true
    (simd.Perf.cycles < plain.Perf.cycles);
  Alcotest.(check int) "same accesses" plain.Perf.accesses simd.Perf.accesses;
  (* gemver S2's nest: inner loop carries the reduction - no discount *)
  let prog2 = Kernels.Gemver.program ~n:12 () in
  let params2 = prog2.Scop.Program.default_params in
  let res2 = Pluto.Scheduler.run Pluto.Scheduler.nofuse prog2 in
  (* measure just the relative change: fused/reduction parts stay *)
  let ast2 = Codegen.Scan.of_result res2 in
  let p2 = Perf.simulate prog2 ast2 ~params:params2 in
  let s2 = Perf.simulate ~config:simd4 prog2 ast2 ~params:params2 in
  Alcotest.(check bool) "discount is partial (reductions keep cost)" true
    (s2.Perf.cycles < p2.Perf.cycles
    && p2.Perf.cycles - s2.Perf.cycles < p2.Perf.cycles / 2)

(* --- locality (reuse distance) ------------------------------------------ *)

let test_reuse_distance_basics () =
  (* same line over and over: all distances 0 *)
  let s = Locality.of_trace ~line_bytes:64 [ 0; 8; 16; 0 ] in
  Alcotest.(check int) "cold" 1 s.Locality.cold;
  Alcotest.(check (float 1e-9)) "mean 0" 0.0 s.Locality.mean_finite;
  (* alternating two lines: distances 1 *)
  let s2 = Locality.of_trace ~line_bytes:64 [ 0; 64; 0; 64; 0 ] in
  Alcotest.(check int) "cold 2" 2 s2.Locality.cold;
  Alcotest.(check (float 1e-9)) "mean 1" 1.0 s2.Locality.mean_finite;
  Alcotest.(check int) "within 2" 3 (s2.Locality.within 2);
  Alcotest.(check int) "within 1" 0 (s2.Locality.within 1)

let test_reuse_distance_stack () =
  (* A B C A : distance of the second A is 2 *)
  let s = Locality.of_trace ~line_bytes:64 [ 0; 64; 128; 0 ] in
  Alcotest.(check int) "cold 3" 3 s.Locality.cold;
  Alcotest.(check (float 1e-9)) "distance 2" 2.0 s.Locality.mean_finite

let prop_reuse_distance_matches_naive =
  QCheck.Test.make ~name:"fenwick matches naive stack distance" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60) (int_range 0 9))
    (fun lines ->
      let trace = List.map (fun l -> l * 64) lines in
      let s = Locality.of_trace ~line_bytes:64 trace in
      (* naive: distinct lines between consecutive occurrences *)
      let naive = ref [] in
      List.iteri
        (fun t line ->
          (* position of the previous occurrence of this line *)
          let prev = ref (-1) in
          List.iteri (fun i l -> if l = line && i < t then prev := i) lines;
          if !prev >= 0 then begin
            (* distinct lines strictly between the two occurrences *)
            let seen = Hashtbl.create 8 in
            List.iteri
              (fun i l -> if i > !prev && i < t then Hashtbl.replace seen l ())
              lines;
            naive := Hashtbl.length seen :: !naive
          end)
        lines;
      let naive_mean =
        match !naive with
        | [] -> 0.0
        | l ->
          float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
      in
      Float.abs (naive_mean -. s.Locality.mean_finite) < 1e-9)

let test_locality_fusion_shortens_reuse () =
  (* the paper's core claim, measured directly: fusion moves reuse mass
     under the cache-capacity threshold (more accesses whose reuse
     distance fits in a 64-line / 256-line LRU cache) *)
  let prog = Kernels.Swim.program ~n:12 () in
  let params = prog.Scop.Program.default_params in
  let capture cfg =
    let res = Pluto.Scheduler.run cfg prog in
    Locality.of_trace
      (Locality.capture prog (Codegen.Scan.of_result res) ~params)
  in
  let wf = capture Fusion.Wisefuse.config in
  let nf = capture Pluto.Scheduler.nofuse in
  Alcotest.(check bool) "more reuses within 64 lines" true
    (wf.Locality.within 64 > nf.Locality.within 64);
  Alcotest.(check bool) "no fewer within 256 lines" true
    (wf.Locality.within 256 >= nf.Locality.within 256);
  Alcotest.(check int) "same cold misses" nf.Locality.cold wf.Locality.cold

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "machine"
    [ ( "cache",
        [ Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "validation" `Quick test_cache_validation ] );
      ("cache-props", qt [ prop_cache_vs_reference ]);
      ( "interp",
        [ Alcotest.test_case "gemver values" `Quick test_interp_gemver_values;
          Alcotest.test_case "access counts" `Quick test_interp_access_count;
          Alcotest.test_case "address layout" `Quick test_interp_addresses_disjoint ] );
      ( "locality",
        [ Alcotest.test_case "basics" `Quick test_reuse_distance_basics;
          Alcotest.test_case "stack distance" `Quick test_reuse_distance_stack;
          Alcotest.test_case "fusion shortens reuse" `Quick
            test_locality_fusion_shortens_reuse ] );
      ("locality-props", qt [ prop_reuse_distance_matches_naive ]);
      ( "perf",
        [ Alcotest.test_case "core scaling" `Quick test_perf_scales_with_cores;
          Alcotest.test_case "sequential flag" `Quick test_perf_sequential_flag;
          Alcotest.test_case "pipelined barriers" `Quick
            test_perf_pipelined_pays_barriers;
          Alcotest.test_case "fusion locality" `Quick
            test_perf_fusion_improves_locality;
          Alcotest.test_case "simd discount" `Quick test_perf_simd_discount ] ) ]
