(* Render a traced pipeline run as a human-readable justification
   chain. All the knowledge lives in the typed decision events emitted
   by the instrumented libraries (see lib/obs); this module only
   interprets their argument lists. *)

type t = {
  kernel : string;
  model : Model.t;
  outcome : Model.optimized;
  events : Obs.Trace.event list;
}

(* --- event argument accessors ------------------------------------------ *)

let astr (e : Obs.Trace.event) k =
  match List.assoc_opt k e.args with Some (Obs.Json.Str s) -> Some s | _ -> None

let aint (e : Obs.Trace.event) k =
  match List.assoc_opt k e.args with Some (Obs.Json.Int i) -> Some i | _ -> None

let abool (e : Obs.Trace.event) k =
  match List.assoc_opt k e.args with
  | Some (Obs.Json.Bool b) -> Some b
  | _ -> None

let str e k = Option.value (astr e k) ~default:"?"
let int_ e k = Option.value (aint e k) ~default:(-1)

(* "flow dependence S2 -> S4 (SCC 1 -> 3)" — present only when the
   event carries dependence arguments *)
let dep_phrase e =
  match astr e "src" with
  | None -> None
  | Some src ->
    Some
      (Printf.sprintf "%s dependence %s -> %s (SCC %d -> %d)" (str e "kind")
         src (str e "dst") (int_ e "src-scc") (int_ e "dst-scc"))

(* --- sections ----------------------------------------------------------- *)

let pp_deps fmt events =
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.name = "deps.analyzed" then begin
        Format.fprintf fmt "dependences: %d (flow %d, anti %d, output %d"
          (int_ e "total") (int_ e "flow") (int_ e "anti") (int_ e "output");
        let inp = int_ e "input" in
        if inp > 0 then Format.fprintf fmt ", input %d" inp;
        Format.fprintf fmt ")@,"
      end)
    events

let pp_prefusion fmt events =
  let any = ref false in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.name with
      | "prefuse.seed" ->
        if not !any then Format.fprintf fmt "pre-fusion clustering:@,";
        any := true;
        Format.fprintf fmt "  cluster %d: seed SCC %d (%s, dim %d) - %s@,"
          (int_ e "cluster") (int_ e "scc") (str e "name") (int_ e "dim")
          (str e "reason")
      | "prefuse.join" ->
        Format.fprintf fmt "    + SCC %d (%s) - %s@," (int_ e "scc")
          (str e "name") (str e "reason")
      | _ -> ())
    events;
  if !any then Format.fprintf fmt "@,"

let pp_search fmt events =
  Format.fprintf fmt "schedule search:@,";
  let config = ref "" in
  let heading e =
    let c = str e "config" in
    if c <> "?" && c <> !config then begin
      config := c;
      Format.fprintf fmt "  [config %s]@," c
    end
  in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.name with
      | "cut.initial" ->
        heading e;
        Format.fprintf fmt "  cut @@ level %d: initial %s -> partitions [%s]@,"
          (int_ e "level") (str e "strategy") (str e "partition")
      | "cut.fallback" ->
        heading e;
        Format.fprintf fmt "  cut @@ level %d: %s" (int_ e "level")
          (str e "strategy");
        (match astr e "requested" with
        | Some r -> Format.fprintf fmt " (requested %s)" r
        | None -> ());
        (match dep_phrase e with
        | Some p -> Format.fprintf fmt ", justified by %s" p
        | None -> ());
        Format.fprintf fmt " -> partitions [%s]@," (str e "partition")
      | "cut.alg2" ->
        heading e;
        Format.fprintf fmt
          "  cut @@ level %d: Algorithm 2 - outer loop would carry forward \
           %s; distributing by minimal cut -> partitions [%s]@,"
          (int_ e "level")
          (Option.value (dep_phrase e) ~default:"dependence")
          (str e "partition")
      | "engine.select" ->
        heading e;
        Format.fprintf fmt "  engine: %s (%s, %d statements)@," (str e "engine")
          (str e "reason") (int_ e "stmts")
      | "ilp.level-solve" ->
        heading e;
        Format.fprintf fmt
          "  level %d: %s (pivots %d, bb nodes %d, warm %d, cold %d)@,"
          (int_ e "level") (str e "outcome")
          (int_ e "pivots" + int_ e "dual-pivots")
          (int_ e "bb-nodes") (int_ e "warm-solves") (int_ e "cold-fallbacks")
      | "lp.relax" ->
        heading e;
        Format.fprintf fmt "  level %d: LP relaxation %s (pivots %d)@,"
          (int_ e "level") (str e "outcome")
          (int_ e "pivots" + int_ e "dual-pivots")
      | "sched.cut-bisect" ->
        heading e;
        Format.fprintf fmt
          "  level %d: bisected the %d-cut fallback chain (probes %d) -> %s@,"
          (int_ e "level") (int_ e "chain") (int_ e "probes")
          (if abool e "feasible" = Some true then
             Printf.sprintf "first feasible relaxation at cut %d"
               (int_ e "landing")
           else "no feasible relaxation on it")
      | "cluster.match" ->
        Format.fprintf fmt
          "  level %d: cluster {%s} scaled by %s -> %s@," (int_ e "level")
          (str e "stmts") (str e "scale")
          (if abool e "ok" = Some true then "integral hyperplane"
           else "no integral scaling (ILP fallback)")
      | "sched.row-accepted" ->
        Format.fprintf fmt
          "  level %d: row accepted - newly satisfies %d deps (%d/%d total)@,"
          (int_ e "level") (int_ e "newly-satisfied") (int_ e "satisfied")
          (int_ e "total-deps")
      | "sched.dead-end" ->
        heading e;
        Format.fprintf fmt "  dead end @@ level %d: %s@," (int_ e "level")
          (str e "code")
      | "fuse.partition" ->
        Format.fprintf fmt "  final outer partitions [%s] (%d nests)@,"
          (str e "partition") (int_ e "groups")
      | "resilience.degrade" ->
        Format.fprintf fmt "  degraded past %s rung: %s (%s)@," (str e "rung")
          (str e "code") (str e "message")
      | "resilience.settled" ->
        Format.fprintf fmt "  settled on %s rung%s@," (str e "rung")
          (if abool e "degraded" = Some true then " (degraded)" else "")
      | "verify.ok" ->
        Format.fprintf fmt "  verification: ok (%d deps checked)@,"
          (int_ e "deps-checked")
      | "verify.fail" ->
        Format.fprintf fmt "  verification FAILED: %s@," (str e "code")
      | _ -> ())
    events;
  Format.fprintf fmt "@,"

let pp_effort fmt events =
  let hits = ref 0 and misses = ref 0 and bb = ref 0 and gave_up = ref 0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.name with
      | "farkas.cache" ->
        if abool e "hit" = Some true then incr hits else incr misses
      | "ilp.bb" ->
        incr bb;
        if astr e "outcome" = Some "gave-up" then incr gave_up
      | _ -> ())
    events;
  if !bb > 0 || !hits + !misses > 0 then begin
    Format.fprintf fmt "solver effort: %d ILP solves" !bb;
    if !gave_up > 0 then Format.fprintf fmt " (%d gave up)" !gave_up;
    Format.fprintf fmt ", farkas cache %d hits / %d misses@,@," !hits !misses
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>=== explain %s (model %s) ===@," t.kernel
    (Model.name t.model);
  pp_deps fmt t.events;
  Format.fprintf fmt "@,";
  pp_prefusion fmt t.events;
  pp_search fmt t.events;
  pp_effort fmt t.events;
  (match t.outcome.Model.resilience with
  | Some o -> Format.fprintf fmt "%a@,@," Report.pp_resilience o
  | None -> ());
  (match t.outcome.Model.scheduler with
  | Some res ->
    Format.fprintf fmt "%a@," Report.pp_table res;
    Format.fprintf fmt
      "reuse: %d dependence pairs co-located (%d RAR) across %d partitions@,"
      (Report.reuse_score res)
      (Report.rar_reuse_score res)
      (Report.partition_count res)
  | None ->
    Format.fprintf fmt
      "no polyhedral schedule (structural model): nothing to partition@,");
  Format.fprintf fmt "@]"
