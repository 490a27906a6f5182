type t = { array : string; idx : int array array }

let make array idx =
  let width =
    match Array.length idx with
    | 0 -> invalid_arg "Access.make: scalar accesses need one row"
    | _ -> Array.length idx.(0)
  in
  Array.iter
    (fun row ->
      if Array.length row <> width then invalid_arg "Access.make: ragged rows")
    idx;
  { array; idx }

let arity a = Array.length a.idx
let width a = Array.length a.idx.(0)

let eval a ~iters ~params =
  let d = Array.length iters and np = Array.length params in
  if d + np + 1 <> width a then invalid_arg "Access.eval: width mismatch";
  Array.map
    (fun row ->
      let acc = ref row.(d + np) in
      for i = 0 to d - 1 do
        acc := !acc + (row.(i) * iters.(i))
      done;
      for p = 0 to np - 1 do
        acc := !acc + (row.(d + p) * params.(p))
      done;
      !acc)
    a.idx

let equal a b =
  a.array = b.array
  && Array.length a.idx = Array.length b.idx
  && Array.for_all2 (fun r1 r2 -> r1 = r2) a.idx b.idx

let same_array a b = a.array = b.array

let affine name row =
  let buf = Buffer.create 16 in
  let last = Array.length row - 1 in
  for i = 0 to last - 1 do
    let c = row.(i) in
    if c <> 0 then begin
      if c > 0 && Buffer.length buf > 0 then Buffer.add_char buf '+';
      if c = -1 then Buffer.add_char buf '-'
      else if c <> 1 then Buffer.add_string buf (string_of_int c ^ "*");
      Buffer.add_string buf (name i)
    end
  done;
  let k = row.(last) in
  if Buffer.length buf = 0 then Buffer.add_string buf (string_of_int k)
  else if k > 0 then Buffer.add_string buf ("+" ^ string_of_int k)
  else if k < 0 then Buffer.add_string buf (string_of_int k);
  Buffer.contents buf

let pp ?iter_names ?param_names fmt a =
  let np =
    match param_names with Some p -> Array.length p | None -> 0
  in
  let d = width a - np - 1 in
  (* a column past [d] exists only when [param_names] is given *)
  let name i =
    if i >= d then (Option.get param_names).(i - d)
    else
      match iter_names with
      | Some its when i < Array.length its -> its.(i)
      | _ -> Printf.sprintf "i%d" i
  in
  Format.fprintf fmt "%s" a.array;
  Array.iter (fun row -> Format.fprintf fmt "[%s]" (affine name row)) a.idx
