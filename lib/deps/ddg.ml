type t = {
  n : int;
  succ : int list array;
  pred : int list array;
  deps : Dep.t list;
}

let build (prog : Scop.Program.t) deps =
  let n = Array.length prog.stmts in
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  List.iter
    (fun (d : Dep.t) ->
      if Dep.is_true d then begin
        if not (List.mem d.dst succ.(d.src)) then succ.(d.src) <- d.dst :: succ.(d.src);
        if not (List.mem d.src pred.(d.dst)) then pred.(d.dst) <- d.src :: pred.(d.dst)
      end)
    deps;
  Array.iteri (fun i l -> succ.(i) <- List.sort compare l) succ;
  Array.iteri (fun i l -> pred.(i) <- List.sort compare l) pred;
  { n; succ; pred; deps }

let true_deps g = List.filter Dep.is_true g.deps

(* --- Kosaraju ---------------------------------------------------------- *)

let scc_kosaraju g =
  let visited = Array.make g.n false in
  let order = ref [] in
  (* first pass: record finish order on G *)
  let rec dfs1 v =
    visited.(v) <- true;
    List.iter (fun w -> if not visited.(w) then dfs1 w) g.succ.(v);
    order := v :: !order
  in
  for v = 0 to g.n - 1 do
    if not visited.(v) then dfs1 v
  done;
  (* second pass: DFS on the transpose in reverse finish order *)
  let scc = Array.make g.n (-1) in
  let rec dfs2 id v =
    scc.(v) <- id;
    List.iter (fun w -> if scc.(w) < 0 then dfs2 id w) g.pred.(v)
  in
  let next = ref 0 in
  List.iter
    (fun v ->
      if scc.(v) < 0 then begin
        dfs2 !next v;
        incr next
      end)
    !order;
  scc

(* --- Tarjan (iterative-friendly recursive version) -------------------- *)

let scc_tarjan g =
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let stack = ref [] in
  let counter = ref 0 in
  let scc = Array.make g.n (-1) in
  let scc_next = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      g.succ.(v);
    if lowlink.(v) = index.(v) then begin
      let id = !scc_next in
      incr scc_next;
      let rec pop () =
        match !stack with
        | [] -> assert false
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          scc.(w) <- id;
          if w <> v then pop ()
      in
      pop ()
    end
  in
  for v = 0 to g.n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (* Tarjan assigns ids in reverse topological order; flip them *)
  let total = !scc_next in
  Array.map (fun id -> total - 1 - id) scc

let scc_count scc = Array.fold_left (fun m id -> max m (id + 1)) 0 scc

let components scc =
  let k = scc_count scc in
  let comps = Array.make k [] in
  Array.iteri (fun v id -> comps.(id) <- v :: comps.(id)) scc;
  Array.map (List.sort compare) comps

let pp fmt g =
  Format.fprintf fmt "@[<v>DDG (%d vertices)" g.n;
  Array.iteri
    (fun v succs ->
      if succs <> [] then begin
        Format.fprintf fmt "@,S%d ->" v;
        List.iter (fun w -> Format.fprintf fmt " S%d" w) succs
      end)
    g.succ;
  Format.fprintf fmt "@]"

let to_dot (prog : Scop.Program.t) g =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph ddg {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  let scc = scc_kosaraju g in
  Array.iter
    (fun (s : Scop.Statement.t) ->
      Buffer.add_string b
        (Printf.sprintf "  S%d [label=\"%s (d%d, scc%d)\"];\n" s.id s.name
           (Scop.Statement.depth s) scc.(s.id)))
    prog.stmts;
  (* one edge per (src, dst, kind) *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (d : Dep.t) ->
      let key = (d.src, d.dst, d.kind) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let style, color =
          match d.kind with
          | Dep.Flow -> ("solid", "black")
          | Dep.Anti -> ("solid", "blue")
          | Dep.Output -> ("solid", "red")
          | Dep.Input -> ("dashed", "gray")
        in
        Buffer.add_string b
          (Printf.sprintf "  S%d -> S%d [style=%s, color=%s, label=\"%s\", fontsize=8];\n"
             d.src d.dst style color (Dep.kind_to_string d.kind))
      end)
    g.deps;
  Buffer.add_string b "}\n";
  Buffer.contents b
