type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Rendered of rendered

(* Built only by [rendered], so [text] is always [to_string tree]. *)
and rendered = { tree : t; text : string }

(* --- writing ------------------------------------------------------------ *)

(* The digits of [n], as [string_of_int] prints them, with no string in
   between. They come off the non-positive side, where [min_int] has
   room. *)
let add_int buf n =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

let needs_escape c = c < ' ' || c = '"' || c = '\\'

(* a string that needs no escape, the common case, is one append *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when c < ' ' -> Printf.bprintf buf "\\u%04x" (Char.code c)
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Shortest representation that round-trips the doubles we emit:
   integral values get a trailing ".0" (so they read back as floats),
   everything else tries %.12g and falls back to %.17g. Non-finite
   floats have no JSON spelling and degrade to null. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
    if not (Float.is_finite f) then Buffer.add_string buf "null"
    else Buffer.add_string buf (float_repr f)
  | Str s -> add_quoted buf s
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
        add_quoted buf k;
        Buffer.add_string buf ": ";
        write buf v)
      fields;
    Buffer.add_char buf '}'
  | Rendered r -> Buffer.add_string buf r.text

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let rendered = function
  | Rendered _ as v -> v
  | v -> Rendered { tree = v; text = to_string v }

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List vs ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        write_pretty buf (indent + 2) v)
      vs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj fields ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        add_quoted buf k;
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'
  | Rendered r -> write_pretty buf indent r.tree

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  write_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else error (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else error ("expected " ^ word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - 48
      | 'a' .. 'f' -> Char.code c - 87
      | 'A' .. 'F' -> Char.code c - 55
      | _ -> error "bad \\u escape"
    in
    let c = ref 0 in
    for i = 0 to 3 do
      c := (!c lsl 4) lor digit s.[!pos + i]
    done;
    pos := !pos + 4;
    !c
  in
  (* a code point above U+FFFF arrives as a high surrogate escape then a
     low one; either half alone encodes nothing *)
  let parse_unicode () =
    let c = parse_hex4 () in
    if c land 0xfc00 = 0xdc00 then error "lone low surrogate";
    if c land 0xfc00 <> 0xd800 then c
    else begin
      if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        error "lone high surrogate";
      pos := !pos + 2;
      let lo = parse_hex4 () in
      if lo land 0xfc00 <> 0xdc00 then error "lone high surrogate";
      0x10000 + ((c - 0xd800) lsl 10) + (lo - 0xdc00)
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then error "truncated escape";
        let c = s.[!pos] in
        advance ();
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> Buffer.add_utf_8_uchar buf (Uchar.of_int (parse_unicode ()))
        | _ -> error "unknown escape");
        go ()
      | c when Char.code c < 0x80 ->
        Buffer.add_char buf c;
        advance ();
        go ()
      | _ ->
        (* raw bytes must be UTF-8: a response may echo them *)
        let d = String.get_utf_8_uchar s !pos in
        if not (Uchar.utf_decode_is_valid d) then error "invalid UTF-8";
        let len = Uchar.utf_decode_length d in
        Buffer.add_substring buf s !pos len;
        pos := !pos + len;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_int =
      (not (String.contains tok '.'))
      && (not (String.contains tok 'e'))
      && not (String.contains tok 'E')
    in
    if is_int then
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> error "bad number")
    else
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> error "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some ']' -> advance ()
          | _ -> error "expected , or ] in array"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec go () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some '}' -> advance ()
          | _ -> error "expected , or } in object"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* --- accessors ---------------------------------------------------------- *)

(* a rendered node answers for its tree *)
let tree = function Rendered r -> r.tree | v -> v

let member key v =
  match tree v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_string_opt v = match tree v with Str s -> Some s | _ -> None
let to_int_opt v = match tree v with Int i -> Some i | _ -> None

let to_float_opt v =
  match tree v with
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool_opt v = match tree v with Bool b -> Some b | _ -> None
let to_list_opt v = match tree v with List vs -> Some vs | _ -> None

let round2 f = Float.round (f *. 100.0) /. 100.0
