(* Fault injection for the serving layer (tests and the soak harness
   only — production never arms the hook, leaving a single ref read on
   the cold-solve path).

   [solve_fault] is consulted exactly once per cold solve. Solves of
   different keys run concurrently on several domains, so the hook must
   be safe to call from any of them: [arm_queue] takes its own mutex,
   and each planned fault is consumed by exactly one solve. Faults
   model the three ways a request can hurt the daemon:

   - [Raise]:   an exception escapes mid-solve after solver state has
                already been mutated — the exception firewall must
                answer typed, and the faulted solve's counters and
                Farkas memo must die with its scope;
   - [Exhaust]: the request's budget is starved (the server swaps in a
                one-pivot allowance), so every solver rung trips and
                the ladder degrades to the unbudgeted identity rung —
                the typed-degradation path. Deliberately NOT
                [Ilp.Lp.Chaos.exhaust]: that sabotages the identity
                rung's own legality check too, which is corruption,
                not exhaustion;
   - [Slow ms]: the solve takes [ms] longer than it should — the
                deadline path. It delays only its own key: requests for
                the same key wait for it, other keys solve beside it. *)

type fault =
  | Raise
  | Exhaust
  | Slow of int  (* milliseconds *)

exception Injected of string

let solve_fault : (unit -> fault option) ref = ref (fun () -> None)

(* consumption tallies, for soak-survival accounting; bumped by
   whichever domain's solve consumed the fault *)
let injected_raises = Atomic.make 0
let injected_exhausts = Atomic.make 0
let injected_slows = Atomic.make 0

(* A sentinel poison for the [Raise] fault: bump a solver counter to a
   recognizable value before raising, so a faulted solve whose counters
   outlive it is caught by the byte-identity and clean-state tests
   rather than slipping through as "merely" a leaked exception. *)
let poison_marker = 999_983

(* The budget override for [Exhaust]: one pivot total, so every solver
   rung trips almost immediately (the budget is shared across a rung's
   LP solves) while the unbudgeted verification stays sound. *)
let starved_budget () = Linalg.Budget.make ~pivots:1 ()

let apply fault run =
  match fault with
  | Raise ->
    Atomic.incr injected_raises;
    Linalg.Counters.(set lp_solves (get lp_solves + poison_marker));
    raise (Injected "injected solver fault")
  | Exhaust ->
    (* the budget swap happened in the server before [run] was built *)
    Atomic.incr injected_exhausts;
    run ()
  | Slow ms ->
    Atomic.incr injected_slows;
    Unix.sleepf (float_of_int ms /. 1e3);
    run ()

(* Arm a fixed plan: each queued fault is consumed by exactly one cold
   solve (concurrency-safe), then the hook reverts to no-fault. *)
let arm_queue faults =
  let q = Queue.create () in
  List.iter (fun f -> Queue.push f q) faults;
  let m = Mutex.create () in
  solve_fault :=
    fun () ->
      Mutex.lock m;
      let f = Queue.take_opt q in
      Mutex.unlock m;
      f

let reset () =
  solve_fault := (fun () -> None);
  Atomic.set injected_raises 0;
  Atomic.set injected_exhausts 0;
  Atomic.set injected_slows 0
