type severity = Error | Warning | Info

type kind =
  | Racy_parallel
  | Lost_parallelism
  | Dropped_point
  | Loose_bounds
  | Guard_mismatch
  | Dead_scan
  | Redundant_dependence
  | Dead_write
  | Unreachable_statement
  | Reduction_detected
  | Reduction_rejected
  | Reduction_certified

type t = {
  kind : kind;
  severity : severity;
  stmts : int list;
  level : int option;
  dep : Deps.Dep.t option;
  message : string;
  context : (string * string) list;
}

let code = function
  | Racy_parallel -> "race.parallel"
  | Lost_parallelism -> "race.lost-parallelism"
  | Dropped_point -> "scan.dropped-point"
  | Loose_bounds -> "scan.loose-bounds"
  | Guard_mismatch -> "scan.guard-mismatch"
  | Dead_scan -> "scan.dead"
  | Redundant_dependence -> "ddg.redundant-dependence"
  | Dead_write -> "ddg.dead-write"
  | Unreachable_statement -> "ddg.unreachable"
  | Reduction_detected -> "reduction.detected"
  | Reduction_rejected -> "reduction.rejected"
  | Reduction_certified -> "race.up-to-reduction"

let severity_of_kind = function
  | Racy_parallel | Dropped_point | Guard_mismatch -> Error
  | Lost_parallelism | Loose_bounds | Dead_scan | Dead_write -> Warning
  | Redundant_dependence | Unreachable_statement | Reduction_detected
  | Reduction_rejected | Reduction_certified ->
    Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let make ?(stmts = []) ?level ?dep ?(context = []) kind message =
  { kind; severity = severity_of_kind kind; stmts; level; dep; message; context }

let count fs =
  List.fold_left
    (fun (e, w, i) f ->
      match f.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) fs

let rank = function Error -> 0 | Warning -> 1 | Info -> 2

let by_severity fs =
  List.stable_sort
    (fun a b ->
      match compare (rank a.severity) (rank b.severity) with
      | 0 -> compare a.stmts b.stmts
      | c -> c)
    fs

let stmt_names (prog : Scop.Program.t) ids =
  String.concat ", "
    (List.map (fun id -> prog.stmts.(id).Scop.Statement.name) ids)

let pp prog fmt f =
  Format.fprintf fmt "%-7s [%s] %s" (severity_name f.severity) (code f.kind)
    f.message;
  let extras =
    (match f.stmts with [] -> [] | ids -> [ stmt_names prog ids ])
    @ match f.level with Some l -> [ Printf.sprintf "t%d" l ] | None -> []
  in
  if extras <> [] then
    Format.fprintf fmt "  (%s)" (String.concat "; " extras)

(* --- JSON ----------------------------------------------------------------- *)

let json prog f =
  Obs.Json.Obj
    ([
       ("code", Obs.Json.Str (code f.kind));
       ("severity", Obs.Json.Str (severity_name f.severity));
       ("stmts", Obs.Json.List (List.map (fun id -> Obs.Json.Int id) f.stmts));
       ( "stmt_names",
         Obs.Json.List
           (List.map
              (fun id ->
                Obs.Json.Str prog.Scop.Program.stmts.(id).Scop.Statement.name)
              f.stmts) );
     ]
    @ (match f.level with
      | Some l -> [ ("level", Obs.Json.Int l) ]
      | None -> [])
    @ (match f.dep with
      | Some d ->
        [ ("dep", Obs.Json.Str (Format.asprintf "%a" Deps.Dep.pp d)) ]
      | None -> [])
    @ [ ("message", Obs.Json.Str f.message) ]
    @ List.map (fun (k, v) -> ("ctx_" ^ k, Obs.Json.Str v)) f.context)
