(** Set-associative LRU cache simulator.

    Addresses are in bytes; a cache stores line tags only (trace-driven
    simulation). Used to build the private-L1/L2 + shared-L3 hierarchy
    of the modeled Sandy Bridge machine. *)

type t

(** [create ~size_bytes ~line_bytes ~assoc ()]. Sizes must be powers of
    two and consistent ([size = sets * assoc * line]).
    @raise Invalid_argument otherwise. *)
val create : size_bytes:int -> line_bytes:int -> assoc:int -> unit -> t

(** [access c ~addr] simulates one access; returns [true] on hit. On a
    miss the line is filled (LRU eviction). *)
val access : t -> addr:int -> bool

(** Hit/miss counters since creation. *)
val hits : t -> int

val misses : t -> int
