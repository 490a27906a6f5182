open Deps

(* statement-pair reuse: any dependence (true or input) between the two
   statements means they touch common data *)
let reuse_matrix (prog : Scop.Program.t) (ddg : Ddg.t) =
  let n = Array.length prog.stmts in
  let m = Array.make_matrix n n false in
  List.iter
    (fun (d : Dep.t) ->
      m.(d.src).(d.dst) <- true;
      m.(d.dst).(d.src) <- true)
    ddg.deps;
  m

let run (prog : Scop.Program.t) (ddg : Ddg.t) scc_of =
  let n = Array.length prog.stmts in
  let nscc = Ddg.scc_count scc_of in
  let comps = Ddg.components scc_of in
  let reuse = reuse_matrix prog ddg in
  (* external predecessor SCCs of each SCC *)
  let scc_preds = Array.make nscc [] in
  Array.iteri
    (fun v succs ->
      List.iter
        (fun w ->
          let a = scc_of.(v) and b = scc_of.(w) in
          if a <> b && not (List.mem a scc_preds.(b)) then
            scc_preds.(b) <- a :: scc_preds.(b))
        succs)
    ddg.succ;
  let visited = Array.make nscc false in
  let ready scc = List.for_all (fun p -> visited.(p)) scc_preds.(scc) in
  let depth id = Scop.Statement.depth prog.stmts.(id) in
  let clusters = ref [] in
  let remaining = ref nscc in
  while !remaining > 0 do
    (* seed: first statement in program order whose SCC is unvisited and
       ready (see the mli note on the precedence check) *)
    let seed = ref (-1) in
    (try
       for s = 0 to n - 1 do
         let scc = scc_of.(s) in
         if (not visited.(scc)) && ready scc then begin
           seed := s;
           raise Exit
         end
       done
     with Exit -> ());
    if !seed < 0 then begin
      (* Precedence can never unblock: the condensation must be cyclic
         (or scc_of is inconsistent with the DDG). Report exactly which
         SCCs are stuck so the caller can see the cycle. *)
      let stuck =
        List.filter (fun scc -> not visited.(scc)) (List.init nscc Fun.id)
      in
      Pluto.Diagnostics.fail ~phase:Scheduling ~code:"prefuse.no-ready-scc"
        ~context:
          [
            ( "stuck-sccs",
              String.concat "," (List.map string_of_int stuck) );
            ("total-sccs", string_of_int nscc);
          ]
        (Printf.sprintf
           "Prefusion: no ready SCC among %d remaining (cyclic condensation?)"
           (List.length stuck))
    end;
    let s = !seed in
    let seed_scc = scc_of.(s) in
    visited.(seed_scc) <- true;
    decr remaining;
    let cluster = ref [ seed_scc ] in
    let fusable = ref comps.(seed_scc) in
    let cluster_dim = depth s in
    let cluster_no = List.length !clusters in
    if Obs.Trace.on () then
      Obs.Trace.instant ~cat:"fuse" "prefuse.seed"
        ~args:
          [
            ("cluster", Obs.Json.Int cluster_no);
            ("scc", Obs.Json.Int seed_scc);
            ("stmt", Obs.Json.Int s);
            ("name", Obs.Json.Str prog.stmts.(s).Scop.Statement.name);
            ("dim", Obs.Json.Int cluster_dim);
            ( "reason",
              Obs.Json.Str "first unvisited SCC in program order with all predecessors scheduled" );
          ];
    (* single pass over the remaining statements in program order
       (Heuristic 2), pulling in same-dimensionality SCCs with reuse
       (Heuristic 1) whose precedence constraint is met *)
    for t = 0 to n - 1 do
      let t_scc = scc_of.(t) in
      if (not visited.(t_scc)) && depth t = cluster_dim then begin
        let members = comps.(t_scc) in
        let has_reuse =
          List.exists
            (fun i -> List.exists (fun j -> reuse.(i).(j)) members)
            !fusable
        in
        if has_reuse && ready t_scc then begin
          visited.(t_scc) <- true;
          decr remaining;
          cluster := t_scc :: !cluster;
          fusable := !fusable @ members;
          if Obs.Trace.on () then
            Obs.Trace.instant ~cat:"fuse" "prefuse.join"
              ~args:
                [
                  ("cluster", Obs.Json.Int cluster_no);
                  ("scc", Obs.Json.Int t_scc);
                  ("stmt", Obs.Json.Int t);
                  ("name", Obs.Json.Str prog.stmts.(t).Scop.Statement.name);
                  ("dim", Obs.Json.Int cluster_dim);
                  ( "reason",
                    Obs.Json.Str "same dimensionality, reuse with cluster, precedence satisfied" );
                ]
        end
      end
    done;
    clusters := List.rev !cluster :: !clusters
  done;
  List.rev !clusters

let order prog ddg scc_of = List.concat (run prog ddg scc_of)
