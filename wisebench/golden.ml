(* The correctness oracle: digests of everything the benchmark's
   programs emit, recorded once by --write-golden and checked on every
   run. A compile job is keyed "<program>/<model>" and stores the MD5 of
   its emitted C and its simulated cycles; a serve key "<kernel>/<model>"
   stores the digest of the cached result payload at the kernel's model
   size. A key missing from the file fails its check: the workloads and
   the oracle were recorded apart. *)

type t = {
  compile : (string, string * int) Hashtbl.t;
  serve : (string, string) Hashtbl.t;
  recording : bool;
  lock : Mutex.t;  (* serve checks run on several client domains *)
}

let empty ~recording =
  { compile = Hashtbl.create 128; serve = Hashtbl.create 128; recording;
    lock = Mutex.create () }

let locked g f =
  Mutex.lock g.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.lock) f

let load path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let doc =
    match Obs.Json.parse text with
    | Ok doc -> doc
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  in
  let g = empty ~recording:false in
  let fields section =
    match Obs.Json.member section doc with
    | Some (Obs.Json.Obj fs) -> fs
    | _ -> failwith (Printf.sprintf "%s: no %S object" path section)
  in
  List.iter
    (fun (k, v) ->
      match
        ( Option.bind (Obs.Json.member "c_md5" v) Obs.Json.to_string_opt,
          Option.bind (Obs.Json.member "cycles" v) Obs.Json.to_int_opt )
      with
      | Some md5, Some cycles -> Hashtbl.replace g.compile k (md5, cycles)
      | _ -> failwith (Printf.sprintf "%s: malformed compile entry %S" path k))
    (fields "compile");
  List.iter
    (fun (k, v) ->
      match Obs.Json.to_string_opt v with
      | Some md5 -> Hashtbl.replace g.serve k md5
      | None -> failwith (Printf.sprintf "%s: malformed serve entry %S" path k))
    (fields "serve");
  g

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let save g path =
  let open Obs.Json in
  let doc =
    Obj
      [ ( "compile",
          Obj
            (List.map
               (fun (k, (md5, cycles)) ->
                 (k, Obj [ ("c_md5", Str md5); ("cycles", Int cycles) ]))
               (sorted_bindings g.compile)) );
        ( "serve",
          Obj (List.map (fun (k, md5) -> (k, Str md5)) (sorted_bindings g.serve)) ) ]
  in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_string_pretty doc))

let check tbl ~recording key actual show =
  match Hashtbl.find_opt tbl key with
  | _ when recording ->
    Hashtbl.replace tbl key actual;
    Ok ()
  | None -> Error (Printf.sprintf "golden: no entry for %s" key)
  | Some expected when expected = actual -> Ok ()
  | Some expected ->
    Error
      (Printf.sprintf "golden %s: expected %s, got %s" key (show expected) (show actual))

let check_compile g key ~c_md5 ~cycles =
  locked g (fun () ->
      check g.compile ~recording:g.recording key (c_md5, cycles)
        (fun (m, c) -> Printf.sprintf "md5 %s / %d cycles" m c))

let check_serve g key ~md5 =
  locked g (fun () -> check g.serve ~recording:g.recording key md5 Fun.id)
