(* lp-dfp dead ends against their reference: a level whose LP
   relaxation is infeasible bisects its fallback-cut chain, and the
   one-cut scan of [Chaos.hooks.linear_cuts] must reach the same
   answer. Shared by test_engine and test_fuzz. *)

let cut_events events =
  List.filter
    (fun (e : Obs.Trace.event) -> String.starts_with ~prefix:"cut." e.name)
    events
  |> List.map (fun (e : Obs.Trace.event) -> (e.name, e.args))

(* Each bisection that found a feasible state lands on it: the next
   level relaxation solved is feasible. *)
let rec lands_feasible = function
  | [] -> true
  | (e : Obs.Trace.event) :: rest ->
    (e.name <> "sched.cut-bisect"
    || List.assoc_opt "feasible" e.args <> Some (Obs.Json.Bool true)
    ||
    match List.find_opt (fun (r : Obs.Trace.event) -> r.name = "lp.relax") rest with
    | Some r -> List.assoc_opt "outcome" r.args = Some (Obs.Json.Str "vertex")
    | None -> false)
    && lands_feasible rest

let traced_schedule ~engine config prog deps =
  Obs.Trace.with_recording (fun () ->
      match
        Pluto.Scheduler.schedule_with_deps ~engine ~memo:(Pluto.Farkas.memo ())
          config prog deps
      with
      | Ok r ->
        Ok
          ( r.Pluto.Scheduler.sched,
            r.Pluto.Scheduler.outer_partition,
            Codegen.Cprint.program ~name:"ref" prog (Codegen.Scan.of_result r) )
      | Error d -> Error d.Pluto.Diagnostics.code)

(* Schedule [prog] unbudgeted, bisecting and then scanning. Returns the
   bisected run's trace events and the first disagreement: schedule,
   outer partition and C, the sequence of cut events, or a bisection
   that landed on an infeasible state. *)
let compare ~engine config prog deps =
  let bisected, events = traced_schedule ~engine config prog deps in
  let scanned, scan_events =
    Linalg.Chaos.arm ~linear_cuts:true (fun () ->
        traced_schedule ~engine config prog deps)
  in
  ( events,
    if bisected <> scanned then
      Some "bisected cut chain and one-cut scan disagree on the schedule"
    else if cut_events events <> cut_events scan_events then
      Some "bisected cut chain and one-cut scan emit different cut events"
    else if not (lands_feasible events) then
      Some "a bisection landed on an infeasible relaxation"
    else None )

(* the longest fallback-cut chain bisected in [events] *)
let longest_chain events =
  List.fold_left
    (fun m (e : Obs.Trace.event) ->
      match (e.name, List.assoc_opt "chain" e.args) with
      | "sched.cut-bisect", Some (Obs.Json.Int c) -> max m c
      | _ -> m)
    0 events
