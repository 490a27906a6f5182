(* End-to-end C emission tests: the emitted C for a transformed
   schedule must compile (gcc) and print the same checksum as the
   emitted C for the original schedule. Exercises ceild/floord bounds,
   guards, shifts and interchanges in real C. Skipped when no C
   compiler is available. *)

let have_cc = Sys.command "command -v gcc > /dev/null 2>&1" = 0

let run_c name source =
  let dir = Filename.temp_file "wisefuse" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let c_file = Filename.concat dir (name ^ ".c") in
  let exe = Filename.concat dir name in
  let oc = open_out c_file in
  output_string oc source;
  close_out oc;
  let cmd =
    Printf.sprintf "gcc -O1 -Wno-unknown-pragmas -o %s %s -lm 2> %s.log"
      (Filename.quote exe) (Filename.quote c_file) (Filename.quote exe)
  in
  if Sys.command cmd <> 0 then begin
    let log = open_in (exe ^ ".log") in
    let err = really_input_string log (min 600 (in_channel_length log)) in
    close_in log;
    Alcotest.failf "gcc failed for %s: %s" name err
  end;
  let ic = Unix.open_process_in (Filename.quote exe) in
  let line = input_line ic in
  ignore (Unix.close_process_in ic);
  line

let check_kernel kname prog models =
  if not have_cc then ()
  else begin
    let deps = Deps.Dep.analyze prog in
    let original = Codegen.Scan.original prog ~deps in
    let ref_out =
      run_c (kname ^ "_orig") (Codegen.Cprint.program ~name:kname prog original)
    in
    List.iter
      (fun (tag, cfg) ->
        let res =
          match
            Pluto.Scheduler.schedule_with_deps ~memo:(Pluto.Farkas.memo ()) cfg
              prog deps
          with
          | Ok res -> res
          | Error d -> Alcotest.failf "%s/%s: %s" kname tag d.Pluto.Diagnostics.code
        in
        let ast = Codegen.Scan.of_result res in
        let out =
          run_c
            (kname ^ "_" ^ tag)
            (Codegen.Cprint.program ~name:kname prog ast)
        in
        Alcotest.(check string) (kname ^ "/" ^ tag ^ " checksum") ref_out out)
      models
  end

let models =
  [ ("wisefuse", Fusion.Wisefuse.config); ("maxfuse", Pluto.Scheduler.maxfuse) ]

let test_gemver () = check_kernel "gemver" (Kernels.Gemver.program ~n:24 ()) models
let test_advect () = check_kernel "advect" (Kernels.Advect.program ~n:16 ()) models
let test_lu () = check_kernel "lu" (Kernels.Lu.program ~n:14 ()) models
let test_swim () = check_kernel "swim" (Kernels.Swim.program ~n:10 ()) models

let test_c_structure () =
  (* even without a compiler, the emitted text must contain the
     essential scaffolding *)
  let prog = Kernels.Gemver.program ~n:8 () in
  let res = Fusion.Wisefuse.run prog in
  let src =
    Codegen.Cprint.program ~name:"gemver" prog (Codegen.Scan.of_result res)
  in
  let contains needle =
    let nh = String.length src and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub src i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [ "#define N 8"; "static double A[8][8];"; "int main(void)";
      "#pragma omp parallel for"; "checksum" ]

let () =
  Alcotest.run "cemit"
    [ ( "c-emission",
        [ Alcotest.test_case "structure" `Quick test_c_structure;
          Alcotest.test_case "gemver" `Slow test_gemver;
          Alcotest.test_case "advect" `Slow test_advect;
          Alcotest.test_case "lu" `Slow test_lu;
          Alcotest.test_case "swim" `Slow test_swim ] ) ]
