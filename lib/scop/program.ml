type array_decl = { array_name : string; extents : int array array }

type t = {
  name : string;
  params : string array;
  default_params : int array;
  arrays : array_decl list;
  stmts : Statement.t array;
}

let nparams t = Array.length t.params

let make ~name ~params ~default_params ~arrays ~stmts =
  let np = Array.length params in
  if Array.length default_params <> np then
    invalid_arg "Program.make: default_params length";
  List.iter
    (fun d ->
      Array.iter
        (fun row ->
          if Array.length row <> np + 1 then
            invalid_arg
              (Printf.sprintf "Program.make: extent width in array %s" d.array_name))
        d.extents)
    arrays;
  let array_names = List.map (fun d -> d.array_name) arrays in
  let module SS = Set.Make (String) in
  let declared = SS.of_list array_names in
  if SS.cardinal declared <> List.length array_names then
    invalid_arg "Program.make: duplicate array declaration";
  Array.iteri
    (fun i (s : Statement.t) ->
      let fail msg = invalid_arg (Printf.sprintf "Program.make: %s in %s" msg s.name) in
      if s.id <> i then fail "statement id not positional";
      let d = Statement.depth s in
      if Array.length s.loop_ids <> d then fail "loop_ids length";
      if Array.length s.beta <> d + 1 then fail "beta length";
      if Poly.Polyhedron.dim s.domain <> d + np then fail "domain dimension";
      List.iter
        (fun (a : Access.t) ->
          if Access.width a <> d + np + 1 then fail ("access width on " ^ a.array);
          if not (SS.mem a.array declared) then fail ("undeclared array " ^ a.array))
        (Statement.accesses s))
    stmts;
  { name; params; default_params; arrays; stmts }

let array_extent decl ~params =
  let np = Array.length params in
  Array.map
    (fun row ->
      let acc = ref row.(np) in
      for p = 0 to np - 1 do
        acc := !acc + (row.(p) * params.(p))
      done;
      !acc)
    decl.extents

let max_depth t =
  Array.fold_left (fun m s -> max m (Statement.depth s)) 0 t.stmts

let pp fmt t =
  Format.fprintf fmt "@[<v>scop %s (params:" t.name;
  Array.iter (fun p -> Format.fprintf fmt " %s" p) t.params;
  Format.fprintf fmt ")";
  Array.iter
    (fun s -> Format.fprintf fmt "@,  %a" (Statement.pp ~params:t.params) s)
    t.stmts;
  Format.fprintf fmt "@]"
