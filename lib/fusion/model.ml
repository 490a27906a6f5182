type t = Icc | Nofuse | Smartfuse | Maxfuse | Wisefuse

let all = [ Icc; Nofuse; Smartfuse; Maxfuse; Wisefuse ]

let name = function
  | Icc -> "icc"
  | Nofuse -> "nofuse"
  | Smartfuse -> "smartfuse"
  | Maxfuse -> "maxfuse"
  | Wisefuse -> "wisefuse"

let description = function
  | Icc -> "pairwise nest fusion + conservative parallelization (baseline)"
  | Wisefuse ->
    "the paper's model: Algorithm 1 pre-fusion schedule + Algorithm 2 parallelism cuts"
  | Smartfuse ->
    "PLuTo default: DFS pre-fusion order, cuts between SCCs of different dimensionality"
  | Nofuse -> "every SCC in its own loop nest"
  | Maxfuse -> "fuse maximally; cut only when the ILP has no hyperplane"

let of_name s =
  match List.find_opt (fun m -> name m = s) all with
  | Some m -> m
  | None -> raise Not_found

let scheduler_config = function
  | Nofuse -> Pluto.Scheduler.nofuse
  | Smartfuse -> Pluto.Scheduler.smartfuse
  | Maxfuse -> Pluto.Scheduler.maxfuse
  | Wisefuse -> Wisefuse.config
  | Icc -> invalid_arg "Fusion.Model: icc has no scheduler config"

type optimized = {
  ast : Codegen.Ast.node;
  scheduler : Pluto.Scheduler.result option;
  icc : Icc.Icc_model.result option;
  resilience : Resilient.outcome option;
      (* which degradation rung produced the schedule (polyhedral
         models only; [None] for icc) *)
}

let optimize ?budget ?engine ?reductions m prog =
  match m with
  | Icc ->
    let r = Icc.Icc_model.run prog in
    { ast = r.Icc.Icc_model.ast; scheduler = None; icc = Some r; resilience = None }
  | _ ->
    (* through the degradation ladder: on the happy path (rung 1) the
       result is identical to running the scheduler directly; on solver
       budget exhaustion or a scheduling dead end the pipeline falls
       back instead of raising *)
    let o =
      Resilient.optimize ?budget ?engine ?reductions
        ~config:(scheduler_config m) prog
    in
    {
      ast = o.Resilient.ast;
      scheduler = Some o.Resilient.result;
      icc = None;
      resilience = Some o;
    }

let artifacts o =
  match (o.scheduler, o.icc) with
  | Some r, _ ->
    (r.Pluto.Scheduler.prog, r.Pluto.Scheduler.all_deps, r.Pluto.Scheduler.sched)
  | None, Some r ->
    (r.Icc.Icc_model.prog, r.Icc.Icc_model.deps, r.Icc.Icc_model.sched)
  | None, None -> assert false
