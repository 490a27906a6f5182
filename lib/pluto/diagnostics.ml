(* Typed diagnostics for the scheduling pipeline.

   Library code used to [failwith] free-form strings on internal
   errors, which callers could neither dispatch on nor render usefully.
   A diagnostic carries a stable machine-readable code, the pipeline
   phase it arose in, a one-line human message and a list of key/value
   context pairs (rendered only in verbose mode).

   Within the libraries the idiom is exception-at-the-point,
   result-at-the-boundary: deep pipeline code raises [Error d] (so it
   does not have to thread [result] through every recursion), and the
   public entry points ([Scheduler.schedule_with_deps],
   [Fusion.Resilient]) catch it and surface [('a, t) result]. The CLI
   maps phases to distinct exit codes. *)

type phase = Usage | Budget | Scheduling | Verification | Codegen

type t = {
  code : string;
  phase : phase;
  message : string;
  context : (string * string) list;
}

exception Error of t

let make ?(context = []) ~phase ~code message =
  { code; phase; message; context }

let fail ?context ~phase ~code message =
  raise (Error (make ?context ~phase ~code message))

(* Run [f ()], converting a raised diagnostic into [Error d]. Other
   exceptions propagate untouched. *)
let protect f = match f () with v -> Ok v | exception Error d -> Stdlib.Error d

let phase_name = function
  | Usage -> "usage"
  | Budget -> "budget"
  | Scheduling -> "scheduling"
  | Verification -> "verification"
  | Codegen -> "codegen"

(* Distinct, stable exit codes per phase; 0 is success, 1 is reserved
   for uncategorized crashes. *)
let exit_code d =
  match d.phase with
  | Usage -> 2
  | Budget -> 3
  | Scheduling -> 4
  | Verification -> 5
  | Codegen -> 6

let pp fmt d =
  Format.fprintf fmt "[%s:%s] %s" (phase_name d.phase) d.code d.message

let pp_verbose fmt d =
  pp fmt d;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "@\n  %s: %s" k v)
    d.context

(* Make stray escapes readable in backtraces and test failures. *)
let () =
  Printexc.register_printer (function
    | Error d -> Some (Format.asprintf "Diagnostics.Error %a" pp_verbose d)
    | _ -> None)
