(* A minimal blocking multi-producer/multi-consumer queue for the
   daemon's domain pools (socket connection workers, the access log
   writer). [pop] returns [None] once the queue is closed and
   drained. *)

type 'a t = {
  q : 'a Queue.t;
  m : Mutex.t;
  c : Condition.t;
  mutable closed : bool;
}

let create () =
  { q = Queue.create (); m = Mutex.create (); c = Condition.create ();
    closed = false }

let push t x =
  Mutex.lock t.m;
  if not t.closed then begin
    Queue.push x t.q;
    Condition.signal t.c
  end;
  Mutex.unlock t.m

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m

let pop t =
  Mutex.lock t.m;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.c t.m
  done;
  let r = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
  Mutex.unlock t.m;
  r
