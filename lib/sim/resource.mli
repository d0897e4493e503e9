(** A k-server FIFO resource with priorities and utilization tracking.

    Models serially-shared hardware: the Ethernet medium (k = 1), the
    QBus (k = 1), a pool of identical CPUs (k = n; the Firefly CPU set
    with its CPU-0 affinity rules is a separate, richer model in the
    [hw] library).  Waiters are served FIFO within a priority class;
    higher priority classes are served first.

    The busy-server integral feeds the utilization figures the paper
    reports ("about 1.2 CPUs being used on the caller machine"). *)

type t

type priority = High | Normal

val create : Engine.t -> name:string -> capacity:int -> t

val name : t -> string
val capacity : t -> int

val acquire : ?priority:priority -> t -> unit
(** Takes one server, suspending while all are busy. *)

val release : t -> unit
(** @raise Invalid_argument if no server is held. *)

val use : ?priority:priority -> t -> Time.span -> unit
(** [use t d] acquires a server, holds it for [d] of virtual time, and
    releases it (also on exception). *)

val in_use : t -> int

val utilization : t -> upto:Time.t -> float
(** Busy-server integral divided by [capacity * elapsed]; in [0, 1]. *)
