let ph_string = function Trace.B -> "B" | Trace.E -> "E" | Trace.I -> "i"

let event_json (e : Trace.event) =
  let base =
    [
      ("name", Json.Str e.name);
      ("ph", Json.Str (ph_string e.ph));
      ("ts", Json.Float e.ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
    ]
  in
  let base = if e.cat = "" then base else base @ [ ("cat", Json.Str e.cat) ] in
  (* instant events need a scope; "t" (thread) keeps them as small
     arrows on the one track we emit *)
  let base =
    match e.ph with Trace.I -> base @ [ ("s", Json.Str "t") ] | _ -> base
  in
  let base =
    match e.args with [] -> base | args -> base @ [ ("args", Json.Obj args) ]
  in
  Json.Obj base

let chrome_trace ?(process = "wisefuse") events =
  let metadata =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("ts", Json.Float 0.0);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str process) ]);
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata :: List.map event_json events));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* --- validation --------------------------------------------------------- *)

let validate doc =
  let ( let* ) = Result.bind in
  let* events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some l -> Ok l
    | None -> Error "no \"traceEvents\" array at top level"
  in
  let check_event i stack prev_ts e =
    let field name conv =
      match Option.bind (Json.member name e) conv with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "event %d: missing or ill-typed %S" i name)
    in
    let* name = field "name" Json.to_string_opt in
    let* ph = field "ph" Json.to_string_opt in
    let* ts = field "ts" Json.to_float_opt in
    let* () =
      if ts +. 1e-9 >= prev_ts then Ok ()
      else
        Error
          (Printf.sprintf "event %d (%s): timestamp %.3f < previous %.3f" i
             name ts prev_ts)
    in
    let* stack =
      match ph with
      | "B" -> Ok (name :: stack)
      | "E" -> (
        match stack with
        | top :: rest when top = name -> Ok rest
        | top :: _ ->
          Error
            (Printf.sprintf "event %d: end of %S while %S is open" i name top)
        | [] -> Error (Printf.sprintf "event %d: end of %S with no open span" i name))
      | "i" | "I" | "M" -> Ok stack
      | other -> Error (Printf.sprintf "event %d: unknown phase %S" i other)
    in
    Ok (stack, ts)
  in
  let rec go i stack prev_ts = function
    | [] ->
      if stack = [] then Ok (List.length events)
      else
        Error
          (Printf.sprintf "unbalanced spans at end of trace: %s still open"
             (String.concat ", " stack))
    | e :: rest ->
      let* stack, ts = check_event i stack prev_ts e in
      go (i + 1) stack ts rest
  in
  go 0 [] neg_infinity events
