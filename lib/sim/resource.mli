(** A device with one holder, a FIFO of waiters and a utilization
    level.

    Models serially-shared hardware and locks: the QBus, the Ethernet
    medium, the DECNet session and send locks.  A process that finds the
    device held waits in a {!Condvar} and is served in arrival order.
    Release hands the device straight to the oldest waiter, so it never
    appears free while anybody waits.

    The busy-time integral feeds the [qbus.utilization] and
    [link.utilization] metrics and the wire load of the extension
    tables. *)

type t

val create : Engine.t -> t

val acquire : t -> unit
(** Takes the device, suspending while it is held. *)

val release : t -> unit
(** @raise Invalid_argument if the device is not held. *)

val utilization : t -> upto:Time.t -> float
(** Fraction of the time up to [upto] the device was held; in [0, 1]. *)
