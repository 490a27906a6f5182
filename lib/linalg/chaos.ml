(* Test hooks in one process-wide record of flags that only [arm]
   writes. Read sites sit on hot paths ([Bigint]'s native operations,
   every simplex phase), so each read is a plain field load: the record
   is a global, and a load needs no inlining across modules, which the
   dev profile's -opaque would prevent.

   [Exhaust] starves the request's budget rather than setting the
   [exhaust] flag: the flag would also sabotage the identity rung's
   unbudgeted legality check, which is corruption, not exhaustion. *)

type fault =
  | Raise
  | Exhaust
  | Slow of int (* milliseconds *)

exception Injected of string

type plan = {
  draw : unit -> fault option;
  (* tallies, bumped by whichever domain's solve took the fault *)
  raised : int Atomic.t;
  exhausted : int Atomic.t;
  slowed : int Atomic.t;
}

let sampled draw =
  { draw; raised = Atomic.make 0; exhausted = Atomic.make 0; slowed = Atomic.make 0 }

let queue faults =
  let q = Queue.of_seq (List.to_seq faults) and m = Mutex.create () in
  sampled (fun () -> Mutex.protect m (fun () -> Queue.take_opt q))

let raises p = Atomic.get p.raised
let exhausts p = Atomic.get p.exhausted
let slows p = Atomic.get p.slowed

type hooks = {
  mutable big_path : bool;
  mutable bland : bool;
  mutable exhaust : bool;
  mutable cold_reoptimize : bool;
  mutable check_warm : bool;
  mutable linear_cuts : bool;
  mutable faults : plan option;
}

let hooks =
  { big_path = false; bland = false; exhaust = false; cold_reoptimize = false;
    check_warm = false; linear_cuts = false; faults = None }

let set h =
  hooks.big_path <- h.big_path;
  hooks.bland <- h.bland;
  hooks.exhaust <- h.exhaust;
  hooks.cold_reoptimize <- h.cold_reoptimize;
  hooks.check_warm <- h.check_warm;
  hooks.linear_cuts <- h.linear_cuts;
  hooks.faults <- h.faults

let arm ?(big_path = hooks.big_path) ?(bland = hooks.bland) ?(exhaust = hooks.exhaust)
    ?(cold_reoptimize = hooks.cold_reoptimize) ?(check_warm = hooks.check_warm)
    ?(linear_cuts = hooks.linear_cuts) ?faults f =
  let saved = { hooks with faults = hooks.faults } (* a copy *) in
  let faults = if Option.is_some faults then faults else hooks.faults in
  set { big_path; bland; exhaust; cold_reoptimize; check_warm; linear_cuts; faults };
  Fun.protect ~finally:(fun () -> set saved) f

(* A recognizable value for [Raise] to add to [Counters.lp_solves]: a
   faulted solve whose counters outlived its scope would show it in the
   byte-identity and clean-state tests. *)
let poison_marker = 999_983

let with_fault budget run =
  match hooks.faults with
  | None -> run budget
  | Some p -> (
    match p.draw () with
    | None -> run budget
    | Some Raise ->
      Atomic.incr p.raised;
      Counters.(set lp_solves (get lp_solves + poison_marker));
      raise (Injected "injected solver fault")
    | Some Exhaust ->
      Atomic.incr p.exhausted;
      run (Some (Budget.make ~pivots:1 ()))
    | Some (Slow ms) ->
      Atomic.incr p.slowed;
      Unix.sleepf (float_of_int ms /. 1e3);
      run budget)
