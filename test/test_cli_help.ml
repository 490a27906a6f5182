(* Guard against --help drift: the top-level help must mention every
   subcommand, every documented exit code and the engine knob. We
   assert on substrings rather than a byte-exact golden file so the
   test survives cmdliner's formatting changes across versions. The
   stdio daemon is driven end to end through the same binary. *)

let binary =
  (* dune places the test runner in _build/default/test/ and the CLI in
     _build/default/bin/; the stanza's deps clause guarantees it exists *)
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "wisefuse_cli.exe")

(* stdout of one CLI run, which must exit 0 *)
let run_cli args =
  let cmd =
    Printf.sprintf "%s %s 2>/dev/null" (Filename.quote binary)
      (String.concat " " args)
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s: non-zero exit" cmd);
  Buffer.contents buf

(* the exit status of one CLI run, output discarded *)
let exit_status args =
  let cmd =
    Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote binary)
      (String.concat " " args)
  in
  match Unix.system cmd with
  | Unix.WEXITED n -> n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_mentions what text needles =
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S" what needle)
        true (contains text needle))
    needles

let subcommands =
  [
    "list"; "show"; "deps"; "opt"; "emit"; "sim"; "analyze"; "trace";
    "explain"; "serve"; "metrics";
  ]

(* the exit-code table documents the pipeline-phase codes *)
let exit_table =
  [
    "usage error"; "budget exhausted"; "scheduling failed";
    "verification failed"; "code generation failed"; "wisecheck findings";
    "unexpected exception";
  ]

let test_top_help () =
  let text = run_cli [ "--help=plain" ] in
  check_mentions "top help" text subcommands;
  check_mentions "top help" text exit_table;
  (* every subcommand prints the same table, not cmdliner's default one
     (123 and 124), since a bad flag exits 2 *)
  List.iter
    (fun sub ->
      let text = run_cli [ sub; "--help=plain" ] in
      check_mentions (sub ^ " help") text exit_table;
      List.iter
        (fun default ->
          Alcotest.(check bool)
            (Printf.sprintf "%s help lacks %S" sub default)
            false (contains text default))
        [ "indiscriminate errors"; "command line parsing errors" ])
    subcommands

let test_opt_help () =
  let text = run_cli [ "opt"; "--help=plain" ] in
  check_mentions "opt help" text [ "--engine"; "lp-dfp"; "auto"; "--tile" ]

let test_serve_help () =
  (* the hardening knobs must stay documented *)
  let text = run_cli [ "serve"; "--help=plain" ] in
  check_mentions "serve help" text
    [
      "--max-pending"; "--deadline-ms"; "--max-deadline-ms";
      "--max-line-bytes"; "--breaker-threshold"; "--breaker-ttl";
    ]

let test_engine_everywhere () =
  (* every pipeline subcommand that runs the optimizer takes --engine *)
  List.iter
    (fun sub ->
      let text = run_cli [ sub; "--help=plain" ] in
      check_mentions (sub ^ " help") text [ "--engine" ])
    [ "opt"; "emit"; "sim"; "analyze"; "trace"; "explain" ]

(* The stdio transport: one loop answers every line in request order
   (whatever --domains says), skips the blank line, answers the
   overlong line "oversized" and keeps the stream framed after it, and
   answers nothing after the shutdown op. *)
let test_stdio_in_order () =
  let input = Filename.temp_file "wiseserve" ".in" in
  Fun.protect
    ~finally:(fun () -> Sys.remove input)
    (fun () ->
      let oc = open_out input in
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        [ {|{"id": 1, "op": "ping"}|}; "";
          {|{"id": 2, "kernel": "gemver", "size": 8}|}; String.make 200 'x';
          {|{"id": 3, "op": "ping"}|}; {|{"id": 4, "op": "shutdown"}|};
          {|{"id": 5, "op": "ping"}|} ];
      close_out oc;
      let replies =
        run_cli
          [ "serve"; "--stdio"; "--domains"; "2"; "--max-line-bytes"; "64";
            "<"; Filename.quote input ]
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
        |> List.map (fun l ->
               match Obs.Json.parse l with
               | Ok j -> j
               | Error m -> Alcotest.failf "unparseable response %S: %s" l m)
      in
      let id j = Option.bind (Obs.Json.member "id" j) Obs.Json.to_int_opt in
      let str path j =
        Option.bind
          (List.fold_left
             (fun v f -> Option.bind v (Obs.Json.member f))
             (Some j) path)
          Obs.Json.to_string_opt
      in
      Alcotest.(check (list (option int)))
        "ids in request order, none after shutdown"
        [ Some 1; Some 2; None; Some 3; Some 4 ]
        (List.map id replies);
      Alcotest.(check (list (option string)))
        "schedule ok, long line oversized"
        [ Some "ok"; Some "oversized" ]
        [ str [ "status" ] (List.nth replies 1);
          str [ "error"; "code" ] (List.nth replies 2) ])

(* bad flags, bad flag values, unknown names and a missing KERNEL are
   usage errors *)
let test_usage_exit () =
  let pipeline = [ "opt"; "emit"; "sim"; "analyze"; "trace"; "explain" ] in
  let with_all = [ "analyze"; "trace"; "explain" ] in
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args ^ " exits 2") 2 (exit_status args))
    ([
       [ "opt"; "gemver"; "--bogus" ];
       [ "opt"; "gemver"; "--size"; "x" ];
       [ "opt"; "gemver"; "--model"; "bogus" ];
       [ "sim"; "gemver"; "--tile"; "0" ];
       [ "list"; "--stats" ];
       [ "metrics"; "--socket"; "S"; "-v" ];
     ]
    @ List.concat_map
        (fun c ->
          [ [ c; "gemver"; "--engine"; "bogus" ];
            [ c; "gemver"; "--reductions"; "bogus" ] ])
        pipeline
    @ List.concat_map
        (fun c -> [ [ c; "gemver"; "--model"; "bogus" ]; [ c ] ])
        with_all)

(* --stats counts the whole command: every job of trace --all, each in
   a Farkas memo of its own, adds up to the per-kernel runs *)
let test_stats_whole_command () =
  let lp_solves args =
    let out = run_cli (args @ [ "--stats" ]) in
    match
      List.find_map
        (fun l -> Scanf.sscanf_opt l "lp_solves %d" Fun.id)
        (String.split_on_char '\n' out)
    with
    | Some n -> n
    | None ->
      Alcotest.failf "%s --stats printed no lp_solves" (String.concat " " args)
  in
  let dir = Filename.temp_dir "wisefuse" "traces" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let all = lp_solves [ "trace"; "--all"; "--out-dir"; Filename.quote dir ] in
      let each =
        List.fold_left
          (fun acc (e : Kernels.Registry.entry) ->
            acc + lp_solves [ "trace"; e.name; "--out"; "/dev/null" ])
          0 Kernels.Registry.all
      in
      Alcotest.(check int) "trace --all = sum of trace K" each all)

let () =
  Alcotest.run "cli_help"
    [
      ( "help",
        [
          Alcotest.test_case "top-level" `Quick test_top_help;
          Alcotest.test_case "opt flags" `Quick test_opt_help;
          Alcotest.test_case "serve flags" `Quick test_serve_help;
          Alcotest.test_case "--engine everywhere" `Quick
            test_engine_everywhere;
          Alcotest.test_case "usage errors exit 2" `Quick test_usage_exit;
          Alcotest.test_case "--stats covers the command" `Quick
            test_stats_whole_command;
        ] );
      ( "serve",
        [ Alcotest.test_case "stdio answers in order" `Quick test_stdio_in_order ]
      );
    ]
