(** The simulator's one queue of waiting processes.  Every process that
    blocks in the models waits in a condition variable, and the signal
    that wakes it hands it a value of type ['a] (the CPU it now holds,
    or just [()]).

    There is no associated mutex: the simulator is cooperatively
    scheduled, so the check-then-wait pattern is atomic between events.
    Waking is FIFO. *)

type 'a t

val create : Engine.t -> 'a t

val await : 'a t -> 'a
(** Suspends the calling process until {!signal} or {!broadcast}, and
    returns the value passed. *)

val await_timeout : 'a t -> timeout:Time.span -> 'a option
(** Like {!await}, but [None] if nobody wakes the process in [timeout]. *)

val signal : 'a t -> 'a -> bool
(** Wakes the oldest live waiter with the value.  Returns [false] if
    nobody was waiting (the signal is {e not} remembered). *)

val broadcast : 'a t -> 'a -> int
(** Wakes all current waiters with the value; returns how many. *)
