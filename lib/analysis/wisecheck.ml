type report = {
  findings : Finding.t list;
  errors : int;
  warnings : int;
  infos : int;
}

let certify ?param_floor (prog : Scop.Program.t) deps sched ast =
  Linalg.Counters.time "analysis" (fun () ->
      (* re-derive reduction proofs from the program text and raw
         dependences — never trust the scheduler's own tags. A
         [Parallel_reduction] mark is only honoured when the proof
         reconstructs here. *)
      let facts, reduction_findings = Reduction.detect prog deps in
      let findings =
        Race.check ?param_floor ~facts prog deps sched ast
        @ Scan_check.check ?param_floor prog sched ast
        @ Lints.check ?param_floor ~facts prog deps
        @ reduction_findings
      in
      let findings = Finding.by_severity findings in
      List.iter
        (fun (f : Finding.t) ->
          Linalg.Counters.(
            incr
              (match f.Finding.severity with
              | Finding.Error -> findings_error
              | Finding.Warning -> findings_warning
              | Finding.Info -> findings_info)))
        findings;
      let errors, warnings, infos = Finding.count findings in
      if Obs.Trace.on () then
        Obs.Trace.instant ~cat:"verify" "analysis.report"
          ~args:
            [
              ("errors", Obs.Json.Int errors);
              ("warnings", Obs.Json.Int warnings);
              ("infos", Obs.Json.Int infos);
              ("certified", Obs.Json.Bool (errors = 0));
            ];
      { findings; errors; warnings; infos })

let certified r = r.errors = 0

let pp_report prog fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter (fun f -> Format.fprintf fmt "%a@," (Finding.pp prog) f) r.findings;
  Format.fprintf fmt "%d error%s, %d warning%s, %d info@]" r.errors
    (if r.errors = 1 then "" else "s")
    r.warnings
    (if r.warnings = 1 then "" else "s")
    r.infos
