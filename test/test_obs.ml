(* Observability tests: the shared JSON writer/parser, the span tracer,
   the stage observer's agreement with the stage spans, Chrome
   trace-event export and validation, trace determinism, and the
   zero-effect guarantee of the disabled (null) sink. *)

let swim () = Kernels.Swim.program ~n:12 ()
let advect () = Kernels.Advect.program ~n:12 ()

(* a pipeline run from zeroed counters (the run owns its Farkas memo);
   returns the optimized outcome *)
let run_pipeline prog =
  Linalg.Counters.reset ();
  Fusion.Model.optimize Fusion.Model.Wisefuse prog

(* [observed f] runs [f ()] under a stage observer and returns its
   result with the observed (stage, self seconds), in completion order *)
let observed f =
  let seen = ref [] in
  Linalg.Counters.set_stage_observer (fun name dt -> seen := (name, dt) :: !seen);
  let v =
    Fun.protect
      ~finally:(fun () -> Linalg.Counters.set_stage_observer (fun _ _ -> ()))
      f
  in
  (v, List.rev !seen)

let sched_string (opt : Fusion.Model.optimized) =
  match opt.Fusion.Model.scheduler with
  | Some res ->
    Format.asprintf "%a" (Pluto.Sched.pp res.Pluto.Scheduler.prog)
      res.Pluto.Scheduler.sched
  | None -> "none"

(* --- Json ---------------------------------------------------------------- *)

let test_json_escaping () =
  let open Obs.Json in
  Alcotest.(check string)
    "quotes and backslashes" {|"a\"b\\c"|}
    (to_string (Str {|a"b\c|}));
  Alcotest.(check string)
    "control characters" {|"tab\there\nand\u0001"|}
    (to_string (Str "tab\there\nand\001"));
  Alcotest.(check string) "integral float" "3.0" (to_string (Float 3.0));
  Alcotest.(check string) "non-finite degrades to null" "null"
    (to_string (Float Float.infinity));
  Alcotest.(check string)
    "object" {|{"a": 1, "b": [true, null]}|}
    (to_string (Obj [ ("a", Int 1); ("b", List [ Bool true; Null ]) ]))

let test_json_roundtrip () =
  let open Obs.Json in
  let values =
    [
      Null;
      Bool false;
      Int (-42);
      Float 0.1;
      Float 1e20;
      Str "plain";
      Str {|quo"te back\slash new
line tab	end|};
      List [ Int 1; Str "x"; Obj [] ];
      Obj
        [
          ("nested", Obj [ ("deep", List [ Float 2.5; Bool true ]) ]);
          ("empty", List []);
        ];
    ]
  in
  List.iter
    (fun v ->
      match parse (to_string v) with
      | Ok v' -> Alcotest.(check bool) (to_string v) true (v = v')
      | Error e -> Alcotest.fail e)
    values;
  (* pretty printer parses back too *)
  let v = Obj [ ("k", List [ Int 1; Int 2 ]); ("s", Str "x") ] in
  (match parse (to_string_pretty v) with
  | Ok v' -> Alcotest.(check bool) "pretty roundtrip" true (v = v')
  | Error e -> Alcotest.fail e);
  (* valid UTF-8 passes through; a unicode escape decodes to UTF-8, and a
     surrogate pair to one four-byte code point (Python's json.dumps
     writes U+1F600 as the pair) *)
  List.iter
    (fun (text, bytes) ->
      match parse text with
      | Ok (Str s) -> Alcotest.(check string) text bytes s
      | _ -> Alcotest.fail ("unicode: " ^ text))
    [ ({|"é"|}, "\xc3\xa9"); ({|"\u00e9"|}, "\xc3\xa9");
      ("\"\xf0\x9f\x98\x80\"", "\xf0\x9f\x98\x80");
      ({|"\u20AC"|}, "\xe2\x82\xac");
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"\uDBFF\uDFFF"|}, "\xf4\x8f\xbf\xbf") ];
  List.iter
    (fun bad ->
      match parse bad with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; {|{"a" 1}|}; "tru"; {|"unterminated|}; "1 2";
      (* lone surrogates and non-hex digits *)
      {|"\udc00"|}; {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|};
      {|"\ud83d\ud83d"|}; {|"\u12_3"|}; {|"\u+123"|}; {|"\u12"|};
      (* raw bytes that are not UTF-8: a stray byte, a truncated
         sequence, an encoded surrogate (CESU-8), an overlong form *)
      "\"a\xffb\""; "\"\xc3\""; "\"\xed\xa0\x80\""; "\"\xc0\xaf\"" ]

(* A reference writer, the plain way: one escaped copy per string and
   [string_of_int] per integer. The property below holds [Obs.Json]'s
   writer to its bytes. *)
module Ref_writer = struct
  open Obs.Json

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
    | Str s -> Buffer.add_string buf ("\"" ^ escape s ^ "\"")
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf ("\"" ^ escape k ^ "\": ");
          write buf v)
        fields;
      Buffer.add_char buf '}'
    | Rendered _ -> invalid_arg "Ref_writer: the generator builds no Rendered node"

  let to_string v =
    let buf = Buffer.create 256 in
    write buf v;
    Buffer.contents buf
end

(* random trees: strings over all 256 byte values, integers over the
   whole native range with its extremes and negatives *)
let arb_tree =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let int =
    oneof
      [ int; oneofl [ min_int; max_int; 0; -1; 10; -10 ];
        map (fun n -> -n) small_nat ]
  in
  let float = oneofl [ 0.0; -0.5; 0.1; 3.0; 1e20; Float.nan; Float.infinity ] in
  let leaf =
    oneof
      [ return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map (fun f -> Obs.Json.Float f) float;
        map (fun s -> Obs.Json.Str s) str ]
  in
  let tree =
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> Obs.Json.List l) (list_size (int_bound 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> Obs.Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n / 3))))) ])
  in
  QCheck.make ~print:Ref_writer.to_string tree

let prop_writer =
  QCheck.Test.make ~name:"writer = reference; rendered looks through" ~count:500
    arb_tree (fun v ->
      let open Obs.Json in
      let r = rendered v in
      let keys = match v with Obj fields -> "absent" :: List.map fst fields | _ -> [ "k" ] in
      to_string v = Ref_writer.to_string v
      && to_string r = to_string v
      && to_string (List [ r; Obj [ ("r", r) ] ]) = to_string (List [ v; Obj [ ("r", v) ] ])
      && to_string_pretty r = to_string_pretty v
      (* [compare], not [=]: a nan leaf equals itself only there *)
      && List.for_all (fun k -> compare (member k r) (member k v) = 0) keys
      && rendered r == r)

(* --- trace spans and self-times ------------------------------------------ *)

let test_span_tree () =
  let _, events =
    Obs.Trace.with_recording (fun () ->
        Obs.Trace.span ~cat:"stage" "outer" (fun () ->
            Obs.Trace.span ~cat:"stage" "inner" (fun () -> ());
            Obs.Trace.instant ~cat:"x" "mark"))
  in
  Alcotest.(check int) "4 span events + 1 instant" 5 (List.length events);
  (* validate the export too *)
  (match Obs.Export.validate (Obs.Export.chrome_trace events) with
  | Ok n -> Alcotest.(check int) "validated count" 6 n (* + metadata *)
  | Error e -> Alcotest.fail e);
  (* exception still closes the span *)
  let _, events =
    Obs.Trace.with_recording (fun () ->
        try Obs.Trace.span ~cat:"stage" "boom" (fun () -> failwith "x")
        with Failure _ -> ())
  in
  (match Obs.Export.validate (Obs.Export.chrome_trace events) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* a recording that raises puts the domain's sink back *)
  (match Obs.Trace.with_recording (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the recording swallowed the exception");
  Alcotest.(check bool) "sink off after a raise" false (Obs.Trace.on ());
  (* recordings nest: whether the inner one returns or raises, the
     outer one returns exactly its own events, in order *)
  List.iter
    (fun inner ->
      let (), outer =
        Obs.Trace.with_recording (fun () ->
            Obs.Trace.instant ~cat:"x" "outer-1";
            (try ignore (Obs.Trace.with_recording inner) with Failure _ -> ());
            Obs.Trace.instant ~cat:"x" "outer-2")
      in
      Alcotest.(check (list string))
        "outer recording keeps its own events" [ "outer-1"; "outer-2" ]
        (List.map (fun (e : Obs.Trace.event) -> e.name) outer);
      let ts = List.map (fun (e : Obs.Trace.event) -> e.ts) outer in
      Alcotest.(check bool) "timestamps non-decreasing" true
        (ts = List.sort compare ts))
    [ (fun () -> Obs.Trace.instant ~cat:"x" "inner");
      (fun () ->
        Obs.Trace.instant ~cat:"x" "inner";
        failwith "inner") ]

let test_validate_rejects () =
  let open Obs.Json in
  let ev ?(ph = "B") ?(ts = 0.0) name =
    Obj [ ("name", Str name); ("ph", Str ph); ("ts", Float ts) ]
  in
  let trace evs = Obj [ ("traceEvents", List evs) ] in
  let expect_error what t =
    match Obs.Export.validate t with
    | Ok _ -> Alcotest.fail ("accepted " ^ what)
    | Error _ -> ()
  in
  expect_error "non-object" (List []);
  expect_error "unbalanced B" (trace [ ev "a" ]);
  expect_error "unbalanced E" (trace [ ev ~ph:"E" "a" ]);
  expect_error "mismatched names"
    (trace [ ev "a"; ev ~ph:"E" "b" ]);
  expect_error "non-monotone ts"
    (trace [ ev ~ts:2.0 "a"; ev ~ph:"E" ~ts:1.0 "a" ]);
  expect_error "unknown phase" (trace [ ev ~ph:"Q" "a" ]);
  match Obs.Export.validate (trace [ ev "a"; ev ~ph:"E" ~ts:1.0 "a" ]) with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 events, got %d" n
  | Error e -> Alcotest.fail e

(* --- determinism and the null sink --------------------------------------- *)

let structure events =
  List.map
    (fun (e : Obs.Trace.event) ->
      ( e.Obs.Trace.ph,
        e.Obs.Trace.name,
        e.Obs.Trace.cat,
        List.map (fun (k, v) -> (k, Obs.Json.to_string v)) e.Obs.Trace.args ))
    events

let traced_pipeline prog = Obs.Trace.with_recording (fun () -> run_pipeline prog)

let test_determinism () =
  List.iter
    (fun prog ->
      let o1, e1 = traced_pipeline (prog ()) in
      let o2, e2 = traced_pipeline (prog ()) in
      Alcotest.(check int) "same event count" (List.length e1)
        (List.length e2);
      Alcotest.(check bool)
        "same span/decision structure modulo timestamps" true
        (structure e1 = structure e2);
      Alcotest.(check string) "same schedule" (sched_string o1)
        (sched_string o2))
    [ swim; advect ]

let test_null_sink_no_effect () =
  (* tracing off: no events appear, no counters change, and the
     schedule is byte-identical to a traced run's *)
  (* a fresh sink, switched off before the run: nothing may reach it *)
  let ((opt_off, wall, counters_off), stages), recorded =
    Obs.Trace.with_recording (fun () ->
        Obs.Trace.disable ();
        observed (fun () ->
            let t0 = Linalg.Clock.now () in
            let opt_off = run_pipeline (swim ()) in
            let wall = Linalg.Clock.now () -. t0 in
            (opt_off, wall, Linalg.Counters.all_counters ())))
  in
  Alcotest.(check int) "null sink records nothing" 0 (List.length recorded);
  (* stage timers are exclusive (self-time), so their sum is bounded by
     the wall time of the run; more means overlapping timers *)
  let stage_sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 stages in
  if stage_sum > (wall *. 1.02) +. 1e-4 then
    Alcotest.failf "stage times sum to %.2f ms > %.2f ms wall"
      (stage_sum *. 1e3) (wall *. 1e3);
  let opt_on, events = traced_pipeline (swim ()) in
  let counters_on = Linalg.Counters.all_counters () in
  Alcotest.(check bool) "traced run recorded events" true (events <> []);
  Alcotest.(check string) "schedules byte-identical" (sched_string opt_off)
    (sched_string opt_on);
  Alcotest.(check bool) "tracing adds no counters" true
    (counters_off = counters_on)

let test_multi_domain_capture () =
  (* Concurrent recordings on separate domains must each harvest
     exactly their own events — none lost, none leaked from a sibling.
     Under the old design (one global sink behind plain refs)
     concurrent emitters raced the shared list head and dropped events;
     the per-domain sinks make this deterministic. *)
  let domains = 4 and per = 200 in
  let worker d () =
    let (), events =
      Obs.Trace.with_recording (fun () ->
          for i = 1 to per do
            Obs.Trace.instant ~cat:"md" (Printf.sprintf "d%d-%d" d i)
          done)
    in
    events
  in
  (* an outer recording on the test's own domain must survive the
     concurrent recordings untouched *)
  let results, outer =
    Obs.Trace.with_recording (fun () ->
        Obs.Trace.instant ~cat:"md" "outer";
        List.init domains (fun d -> Domain.spawn (worker d))
        |> List.map Domain.join)
  in
  List.iteri
    (fun d events ->
      Alcotest.(check int)
        (Printf.sprintf "domain %d: no event lost" d)
        per (List.length events);
      let prefix = Printf.sprintf "d%d-" d in
      let own (e : Obs.Trace.event) =
        String.length e.Obs.Trace.name >= String.length prefix
        && String.sub e.Obs.Trace.name 0 (String.length prefix) = prefix
      in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: only its own events" d)
        true (List.for_all own events))
    results;
  Alcotest.(check int) "outer sink untouched" 1 (List.length outer);
  Alcotest.(check bool) "all sinks off again" false (Obs.Trace.on ())

(* each stage span's exclusive self-time (its duration minus its child
   stage spans'), in completion order *)
let stage_self_times events =
  let stack = ref [] and out = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.ph with
      | Obs.Trace.B when e.cat = "stage" ->
        stack := (e.name, e.ts, ref 0.0) :: !stack
      | Obs.Trace.E -> (
        match !stack with
        | (name, t0, children) :: rest when name = e.name ->
          stack := rest;
          let dt = (e.ts -. t0) /. 1e6 in
          (match rest with
          | (_, _, parent) :: _ -> parent := !parent +. dt
          | [] -> ());
          out := (name, dt -. !children) :: !out
        | _ -> ())
      | _ -> ())
    events;
  List.rev !out

let test_self_times_reconcile () =
  (* the observer's exclusive self-times must agree with the stage
     spans': same stages in the same order, and each within 5% (they
     bracket the same code with adjacent clock reads) *)
  let (_, events), stages = observed (fun () -> traced_pipeline (swim ())) in
  let spans = stage_self_times events in
  Alcotest.(check (list string))
    "same stages in same order" (List.map fst stages) (List.map fst spans);
  List.iter2
    (fun (name, t) (_, t') ->
      let tol = 0.05 *. Float.max t t' +. 5e-4 in
      if Float.abs (t -. t') > tol then
        Alcotest.failf "stage %s: observer %.6fs vs spans %.6fs" name t t')
    stages spans

(* --- per-domain counters ------------------------------------------------- *)

let test_counters_per_domain () =
  (* two domains optimize different kernels at once; each domain's
     counters are those of a sequential run of its kernel *)
  let progs = [ ("swim", swim); ("advect", advect) ] in
  let counted_run prog =
    ignore (run_pipeline prog);
    Linalg.Counters.all_counters ()
  in
  let sequential = List.map (fun (_, p) -> counted_run (p ())) progs in
  let ready = Atomic.make 0 in
  let concurrent =
    List.map
      (fun (_, p) ->
        Domain.spawn (fun () ->
            let prog = p () in
            Atomic.incr ready;
            while Atomic.get ready < List.length progs do
              Domain.cpu_relax ()
            done;
            counted_run prog))
      progs
    |> List.map Domain.join
  in
  List.iter2
    (fun (name, _) (c_seq, c_par) ->
      Alcotest.(check (list (pair string int))) (name ^ ": counters") c_seq c_par)
    progs (List.combine sequential concurrent)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_writer;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span tree" `Quick test_span_tree;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "multi-domain capture" `Quick
            test_multi_domain_capture;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "null sink no effect" `Quick
            test_null_sink_no_effect;
          Alcotest.test_case "self-times reconcile" `Quick
            test_self_times_reconcile;
          Alcotest.test_case "counters per domain" `Quick
            test_counters_per_domain;
        ] );
    ]
