(* Layer self-times from recorded spans.

   [Obs.Trace.self_times] subtracts only children of the same category;
   a layer ledger needs every child subtracted, whatever its category
   (a [stage] span inside a [bench] span, a [sched] span inside a
   [stage] span), so that the self-times of one operation add back up
   to its wall time. *)

type acc = (string * string, float ref) Hashtbl.t

let create () : acc = Hashtbl.create 32

let add (acc : acc) key us =
  match Hashtbl.find_opt acc key with
  | Some r -> r := !r +. us
  | None -> Hashtbl.add acc key (ref us)

(* Adds each closed span's self-time (microseconds) to [acc], keyed by
   (category, name); returns the summed duration of the top-level
   spans. *)
let self_times (acc : acc) (events : Obs.Trace.event list) =
  let stack = ref [] and top = ref 0.0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.ph with
      | Obs.Trace.B -> stack := (e.cat, e.name, e.ts, ref 0.0) :: !stack
      | Obs.Trace.E -> (
        match !stack with
        | (cat, name, t0, children) :: rest when name = e.name ->
          let dur = e.ts -. t0 in
          add acc (cat, name) (dur -. !children);
          (match rest with
          | (_, _, _, parent) :: _ -> parent := !parent +. dur
          | [] -> top := !top +. dur);
          stack := rest
        | _ -> ())
      | Obs.Trace.I -> ())
    events;
  !top

let get (acc : acc) key = match Hashtbl.find_opt acc key with Some r -> !r | None -> 0.0

let bindings (acc : acc) =
  List.sort compare (Hashtbl.fold (fun k r l -> (k, !r) :: l) acc [])

(* [shift events ~by] moves timestamps by [by] microseconds, to place
   one operation's recording on the run's timeline for export. *)
let shift events ~by =
  List.map (fun (e : Obs.Trace.event) -> { e with Obs.Trace.ts = e.ts +. by }) events

(* Bounded in-memory store of exported events: the trace file of a long
   run keeps its first [cap] events; self-times are accumulated from
   every event regardless. *)
type export = { mutable kept : Obs.Trace.event list list; mutable count : int }

let cap = 20_000

let export () = { kept = []; count = 0 }

let keep x events =
  if x.count < cap then begin
    x.kept <- events :: x.kept;
    x.count <- x.count + List.length events
  end

let write x path =
  let doc = Obs.Export.chrome_trace ~process:"wisebench" (List.concat (List.rev x.kept)) in
  Run.mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Obs.Json.to_string doc))
