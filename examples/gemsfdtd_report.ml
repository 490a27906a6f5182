(* The paper's Figure 8: the fusion partitioning achieved by icc,
   smartfuse and wisefuse on the gemsfdtd UPMLupdateh-like routine
   (SCC dimensionality and partition number per fusion model).

     dune exec examples/gemsfdtd_report.exe *)

let () =
  let prog = Kernels.Gemsfdtd.program ~n:10 () in

  let wf = Fusion.Wisefuse.run prog in
  let sf = Pluto.Scheduler.run Pluto.Scheduler.smartfuse prog in
  let icc = Icc.Icc_model.run prog in

  (* icc partition per statement = its nest index *)
  let icc_part = Pluto.Sched.outer_partition icc.Icc.Icc_model.sched in

  (* align rows on wisefuse's pre-fusion order, like Figure 8 *)
  Format.printf "Figure 8 - partitioning per fusion model (gemsfdtd)@.";
  Format.printf "%-6s %-4s %-6s %-10s %-9s@." "SCC" "dim" "icc" "smartfuse"
    "wisefuse";
  let sf_part = sf.Pluto.Scheduler.outer_partition in
  let wf_part = wf.Pluto.Scheduler.outer_partition in
  List.iter
    (fun (r : Fusion.Report.row) ->
      let rep = List.hd r.members in
      Format.printf "%-6s %-4d %-6d %-10d %-9d (%s)@."
        (string_of_int r.scc) r.dim icc_part.(rep) sf_part.(rep) wf_part.(rep)
        prog.stmts.(rep).Scop.Statement.name)
    (Fusion.Report.partition_table wf);

  let count_distinct a =
    List.length (List.sort_uniq compare (Array.to_list a))
  in
  Format.printf "@.partitions: icc %d, smartfuse %d, wisefuse %d@."
    (List.length icc.Icc.Icc_model.nests)
    (count_distinct sf_part)
    (count_distinct wf_part)
