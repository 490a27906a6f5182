(* Obs.Metrics tests: exact log-linear bucket boundaries (edges,
   underflow, overflow), the shard-merge algebra (associative,
   commutative, loss-free — property-tested), loss-free concurrent
   observation from real domains, quantile error bounds, the zero-cost
   disabled path, and Prometheus exposition well-formedness. *)

module M = Obs.Metrics
module B = Obs.Metrics.Buckets

(* --- bucket boundaries ---------------------------------------------------- *)

let test_bucket_edges () =
  (* the first [sub] values get one bucket each *)
  for v = 0 to B.sub - 1 do
    Alcotest.(check int) (Printf.sprintf "index %d" v) (1 + v) (B.index v)
  done;
  (* negatives underflow, nothing is dropped *)
  Alcotest.(check int) "index (-1)" B.underflow (B.index (-1));
  Alcotest.(check int) "index min_int" B.underflow (B.index min_int);
  (* overflow threshold is exactly 2^30 *)
  Alcotest.(check bool) "2^30 - 1 below overflow" true
    (B.index ((1 lsl 30) - 1) < B.overflow);
  Alcotest.(check int) "2^30 overflows" B.overflow (B.index (1 lsl 30));
  Alcotest.(check int) "max_int overflows" B.overflow (B.index max_int);
  (* octave starts: each power of two opens a fresh sub-bucket run *)
  Alcotest.(check int) "index 8" (1 + B.sub) (B.index 8);
  Alcotest.(check int) "index 16" (1 + (2 * B.sub)) (B.index 16);
  (* upper edges are exact and inclusive: upper i is in bucket i, and
     upper i + 1 is in bucket i+1 — for EVERY finite bucket *)
  Alcotest.(check int) "upper underflow" (-1) (B.upper B.underflow);
  for i = 1 to B.overflow - 1 do
    let u = B.upper i in
    Alcotest.(check int) (Printf.sprintf "upper %d is inside %d" u i) i
      (B.index u);
    Alcotest.(check int)
      (Printf.sprintf "upper %d + 1 is inside %d" u (i + 1))
      (i + 1)
      (B.index (u + 1))
  done;
  Alcotest.(check int) "last finite edge" ((1 lsl 30) - 1)
    (B.upper (B.overflow - 1))

let test_index_total_and_monotone () =
  (* every int lands in exactly one bucket, and the mapping is
     monotone: no value can be binned below a smaller value *)
  let vals =
    [ min_int; -7; -1; 0; 1; 7; 8; 9; 100; 1023; 1024; 65537;
      (1 lsl 30) - 1; 1 lsl 30; max_int ]
  in
  List.iter
    (fun v ->
      let i = B.index v in
      Alcotest.(check bool)
        (Printf.sprintf "index %d in range" v)
        true
        (i >= 0 && i < B.count))
    vals;
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool)
        (Printf.sprintf "monotone %d <= %d" a b)
        true
        (B.index a <= B.index b);
      pairs rest
    | _ -> ()
  in
  pairs vals

(* --- merge algebra (the scrape-time shard fold) --------------------------- *)

let arb_cells =
  QCheck.make
    ~print:(fun a ->
      String.concat ";" (Array.to_list (Array.map string_of_int a)))
    QCheck.Gen.(array_size (return B.count) (int_bound 1000))

let sum = Array.fold_left ( + ) 0

let contains text needle =
  let n = String.length needle and m = String.length text in
  let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* the [(le, cumulative count)] bucket lines of histogram [name] in an
   exposition, +Inf as [max_int] *)
let buckets_of text name =
  let prefix = name ^ {|_bucket{le="|} in
  let k = String.length prefix in
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         if String.length l > k && String.sub l 0 k = prefix then
           match String.index_from_opt l k '"', String.rindex_opt l ' ' with
           | Some q, Some sp ->
             let le = String.sub l k (q - k) in
             Some
               ( (if le = "+Inf" then max_int else int_of_string le),
                 int_of_string (String.sub l (sp + 1) (String.length l - sp - 1)) )
           | _ -> None
         else None)

(* the upper edge of the first bucket whose cumulative count reaches
   [q] of the total: the estimate a Prometheus consumer reads *)
let quantile text name q =
  match List.rev (buckets_of text name) with
  | [] | (_, 0) :: _ -> 0.
  | (_, total) :: _ ->
    let rank = max 1 (min total (int_of_float (ceil (q *. float_of_int total)))) in
    float_of_int (fst (List.find (fun (_, c) -> c >= rank) (buckets_of text name)))

let merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:100
    (QCheck.triple arb_cells arb_cells arb_cells) (fun (a, b, c) ->
      B.merge a (B.merge b c) = B.merge (B.merge a b) c)

let merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:100
    (QCheck.pair arb_cells arb_cells) (fun (a, b) ->
      B.merge a b = B.merge b a)

let merge_lossfree =
  QCheck.Test.make ~name:"merge loss-free (sum preserved)" ~count:100
    (QCheck.pair arb_cells arb_cells) (fun (a, b) ->
      sum (B.merge a b) = sum a + sum b)

let merge_identity =
  QCheck.Test.make ~name:"merge identity (zeros)" ~count:50 arb_cells
    (fun a -> B.merge a (Array.make B.count 0) = a)

(* --- concurrent observation: shards merged without loss ------------------- *)

let test_multi_domain_lossfree () =
  let r = M.create () in
  let c = M.counter r ~name:"t_total" ~help:"h" () in
  let h = M.histogram r ~name:"t_lat" ~help:"h" () in
  let per_domain = 10_000 and domains = 4 in
  let worker d () =
    for i = 1 to per_domain do
      M.inc c;
      (* mixed magnitudes so several octaves fill, plus both sinks *)
      M.observe h ((i * (d + 1)) land 0xFFFF);
      if i mod 1000 = 0 then M.observe h (-1);
      if i mod 2000 = 0 then M.observe h (1 lsl 30)
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  let expected =
    domains * (per_domain + (per_domain / 1000) + (per_domain / 2000))
  in
  Alcotest.(check int) "counter exact" (domains * per_domain)
    (M.counter_value c);
  let text = M.exposition r in
  Alcotest.(check bool) "histogram count exact" true
    (contains text (Printf.sprintf "t_lat_count %d\n" expected));
  Alcotest.(check bool) "bucket sum == count" true
    (contains text (Printf.sprintf {|t_lat_bucket{le="+Inf"} %d|} expected))

let test_quantile_bound () =
  let r = M.create () in
  let h = M.histogram r ~name:"t_q" ~help:"h" () in
  for v = 1 to 1000 do
    M.observe h v
  done;
  let text = M.exposition r in
  let q50 = quantile text "t_q" 0.5 in
  let q99 = quantile text "t_q" 0.99 in
  (* upper-edge estimate: true quantile <= estimate <= 1.125x + edge *)
  Alcotest.(check bool) "p50 in [500, 575]" true (q50 >= 500. && q50 <= 575.);
  Alcotest.(check bool) "p99 in [990, 1120]" true
    (q99 >= 990. && q99 <= 1120.);
  Alcotest.(check bool) "p50 <= p99" true (q50 <= q99);
  (* empty histogram answers 0, never raises *)
  ignore (M.histogram r ~name:"t_empty" ~help:"h" ());
  Alcotest.(check (float 0.0)) "empty quantile" 0.0
    (quantile (M.exposition r) "t_empty" 0.5)

(* --- disabled path -------------------------------------------------------- *)

let test_disabled_noop () =
  let r = M.create ~enabled:false () in
  Alcotest.(check bool) "registry disabled" false (M.enabled r);
  let c = M.counter r ~name:"d_total" ~help:"h" () in
  let h = M.histogram r ~name:"d_lat" ~help:"h" () in
  M.inc c;
  M.inc ~n:41 c;
  M.observe h 123;
  Alcotest.(check int) "counter stays 0" 0 (M.counter_value c);
  Alcotest.(check bool) "histogram stays empty" true
    (contains (M.exposition r) "d_lat_count 0\n")

(* --- exposition ----------------------------------------------------------- *)

let test_exposition () =
  let r = M.create () in
  let c =
    M.counter r ~name:"e_total" ~help:"requests"
      ~labels:[ ("outcome", {|we"ird\lab
el|}) ]
      ()
  in
  M.gauge_fn r ~name:"e_gauge" ~help:"depth" (fun () -> 42);
  let h = M.histogram r ~name:"e_lat" ~help:"latency" () in
  M.inc ~n:3 c;
  List.iter (M.observe h) [ 1; 1; 9; 700; 1 lsl 30 ];
  M.counter_fn r ~name:"e_fn" ~help:"sampled" (fun () -> 17);
  let text = M.exposition r in
  let contains = contains text in
  Alcotest.(check bool) "HELP line" true (contains "# HELP e_total requests");
  Alcotest.(check bool) "TYPE counter" true (contains "# TYPE e_total counter");
  Alcotest.(check bool) "TYPE gauge" true (contains "# TYPE e_gauge gauge");
  Alcotest.(check bool) "TYPE histogram" true
    (contains "# TYPE e_lat histogram");
  Alcotest.(check bool) "label escaping" true
    (contains {|e_total{outcome="we\"ird\\lab\nel"} 3|});
  Alcotest.(check bool) "gauge sample" true (contains "e_gauge 42");
  Alcotest.(check bool) "callback sample" true (contains "e_fn 17");
  Alcotest.(check bool) "+Inf equals count" true
    (contains {|e_lat_bucket{le="+Inf"} 5|} && contains "e_lat_count 5");
  Alcotest.(check bool) "sum series" true
    (contains ("e_lat_sum " ^ string_of_int (1 + 1 + 9 + 700 + (1 lsl 30))));
  (* cumulative le values never decrease across the bucket lines *)
  let les =
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           if
             String.length l > 13
             && String.sub l 0 13 = "e_lat_bucket{"
           then
             match String.index_opt l ' ' with
             | Some sp ->
               int_of_string_opt
                 (String.sub l (sp + 1) (String.length l - sp - 1))
             | None -> None
           else None)
  in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "several le buckets rendered" true
    (List.length les >= 4);
  Alcotest.(check bool) "cumulative buckets monotone" true (mono les)

let () =
  Alcotest.run "metrics"
    [
      ( "buckets",
        [
          Alcotest.test_case "edges" `Quick test_bucket_edges;
          Alcotest.test_case "total and monotone" `Quick
            test_index_total_and_monotone;
        ] );
      ( "merge",
        List.map QCheck_alcotest.to_alcotest
          [ merge_associative; merge_commutative; merge_lossfree;
            merge_identity ] );
      ( "sharding",
        [
          Alcotest.test_case "multi-domain loss-free" `Quick
            test_multi_domain_lossfree;
          Alcotest.test_case "quantile bound" `Quick test_quantile_bound;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_noop;
        ] );
      ("exposition", [ Alcotest.test_case "syntax" `Quick test_exposition ]);
    ]
