(** A minimal blocking multi-producer/multi-consumer queue for the
    daemon's domain pools (socket connection workers, the access-log
    writer domain). *)

type 'a t

val create : unit -> 'a t

(** Enqueue and wake one consumer. Silently dropped after {!close}
    (a drain must not accept new work). *)
val push : 'a t -> 'a -> unit

(** Close the queue: consumers drain what is left, then see [None]. *)
val close : 'a t -> unit

(** Block until an element or closure; [None] means closed and
    drained. *)
val pop : 'a t -> 'a option
