(** The engine's default event queue: three implicit 4-ary min-heaps and
    two sorted runs of flat event nodes ({!Evnode}), ordered by
    [(time, tie, seq)] — the key is a total order (the sequence number
    is unique), so the pop sequence, and therefore every simulation
    output, is independent of the queue's internals.

    Each position holds a node's id in its pool and a copy of its key,
    all ints, so scheduling and popping store no pointers.  One heap
    holds the events due soon after the last pop.  The other events,
    and apart from them the engine's timeouts, each go to a sorted run
    when their key comes after the run's last one, and to a heap of
    their class otherwise.  A pop takes the smallest of the five heads.

    Scheduling in steady state allocates nothing: nodes recycle through
    the pool's free stack and the payload is closure-free (a handler
    index plus immediate slots) unless the caller opts into the closure
    API.

    The {!Calendar} queue is the drop-in alternative for the
    dense-timestamp regime; both pop in exactly the same order. *)

type t

val create : ?pool:Evnode.pool -> unit -> t
(** [pool] (default: a fresh one) is the node registry the queue's
    nodes come from; the calendar shares it with its overflow queue. *)

val size : t -> int
val is_empty : t -> bool

val insert : t -> Evnode.t -> unit
(** [insert t n] queues an already-filled node.  [n] must come from the
    queue's pool, and [n.seq] must be unique across live events for the
    order to be total.
    @raise Invalid_argument when [n] is not registered in the pool. *)

val insert_timer : t -> Evnode.t -> unit
(** [insert_timer t n] is {!insert} into the class kept for the
    engine's timeouts: a sorted run that takes each timeout due after
    the last one it holds, and a heap for the rest.  Nearly all
    timeouts are cancelled and stay queued until their deadline; in a
    class of their own they do not deepen the part holding the other
    far-off events.  The pop order does not depend on which insert
    filed a node.
    @raise Invalid_argument when [n] is not registered in the pool. *)

val add : t -> time:Time.t -> tie:int -> seq:int -> (unit -> unit) -> unit
(** Closure-mode insert: allocates a node off the pool and stores [run]
    in it. *)

val min_time : t -> Time.t
(** Time of the next event.  Meaningless when {!is_empty}; callers must
    check first. *)

val all_after : t -> Time.t -> bool
(** [all_after t time] is whether every queued event is due strictly
    after [time]: true when [t] is empty.  One probe of the heads,
    where {!is_empty} then {!min_time} would find the minimum twice. *)

val head_before : t -> Time.t -> int -> int -> bool
(** [head_before t time tie seq] is whether the queue's minimum orders
    before the key [(time, tie, seq)]: false when [t] is empty.  A delay
    that waits nested dispatches events while it holds for its key. *)

val pop : t -> Evnode.t
(** Removes and returns the minimum node; the caller dispatches its
    payload and recycles it through the pool.
    @raise Invalid_argument when empty. *)

val advance : t -> Time.t -> unit
(** [advance t time] records [time] as the last instant popped, as a
    {!pop} of an event due then would, without any event.  The engine
    calls it when a delay resumes in place; every queued event must be
    due after [time].  Only which part later inserts join depends on
    it, never the pop order. *)

val pop_run : t -> unit -> unit
(** Closure-mode pop: removes the minimum event, recycles the node and
    returns its closure (which the caller then runs).  Only meaningful
    for events added with {!add}.
    @raise Invalid_argument when empty. *)
