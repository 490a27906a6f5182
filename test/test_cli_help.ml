(* Guard against --help drift: the top-level help must mention every
   subcommand, every documented exit code and the engine knob. We
   assert on substrings rather than a byte-exact golden file so the
   test survives cmdliner's formatting changes across versions. *)

let binary =
  (* dune places the test runner in _build/default/test/ and the CLI in
     _build/default/bin/; the stanza's deps clause guarantees it exists *)
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "wisefuse_cli.exe")

let run_help args =
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
    "explain"; "serve";
  ]

let test_top_help () =
  let text = run_help [ "--help=plain" ] in
  check_mentions "top help" text subcommands;
  (* the exit-code table documents the pipeline-phase codes *)
  check_mentions "top help" text
    [
      "usage error"; "budget exhausted"; "scheduling failed";
      "verification failed"; "code generation failed"; "wisecheck findings";
    ]

let test_opt_help () =
  let text = run_help [ "opt"; "--help=plain" ] in
  check_mentions "opt help" text [ "--engine"; "lp-dfp"; "auto"; "--tile" ]

let test_serve_help () =
  (* the hardening knobs must stay documented *)
  let text = run_help [ "serve"; "--help=plain" ] in
  check_mentions "serve help" text
    [
      "--max-pending"; "--deadline-ms"; "--max-deadline-ms";
      "--max-line-bytes"; "--breaker-threshold"; "--breaker-ttl";
    ]

let test_engine_everywhere () =
  (* every pipeline subcommand that runs the optimizer takes --engine *)
  List.iter
    (fun sub ->
      let text = run_help [ sub; "--help=plain" ] in
      check_mentions (sub ^ " help") text [ "--engine" ])
    [ "opt"; "emit"; "sim"; "analyze"; "trace"; "explain" ]

(* bad flags, bad flag values and unknown names are usage errors *)
let test_usage_exit () =
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args ^ " exits 2") 2 (exit_status args))
    [
      [ "opt"; "gemver"; "--bogus" ];
      [ "opt"; "gemver"; "--size"; "x" ];
      [ "opt"; "gemver"; "--model"; "bogus" ];
      [ "sim"; "gemver"; "--tile"; "0" ];
    ]

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
        ] );
    ]
