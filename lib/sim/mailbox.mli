(** An unbounded FIFO message queue between simulated processes.

    Models hardware and software queues whose occupancy we do not need
    to bound explicitly: controller descriptor rings, the datalink
    thread's input queue, per-address-space delivery queues. *)

type 'a t

val create : Engine.t -> 'a t

val send : 'a t -> 'a -> unit
(** Enqueues a message, waking one waiting receiver if any. *)

val recv : 'a t -> 'a
(** Dequeues the oldest message, suspending while empty. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
