(** The discrete-event simulation engine.

    The engine owns a virtual clock and an ordered event queue.  Model
    code runs as {e processes}: ordinary OCaml functions executed under
    an effect handler that interprets {!delay} and {!suspend}.  A process
    therefore reads as straight-line code while the engine interleaves
    many of them in deterministic virtual-time order.

    Determinism: events scheduled for the same instant run in scheduling
    order (FIFO) by default, so a run is a pure function of the seed and
    the model.  With [~tie_break:`Random] same-instant events instead
    run in a seed-controlled random order — still a pure function of the
    seed, but one that explores schedule interleavings the FIFO order
    freezes (the simulation-testing harness in library [check] uses this
    to hunt ordering bugs).

    {!delay} and {!suspend} may only be called from inside a process
    (i.e. from a function started with {!spawn} or from a callback run by
    such a process); calling them elsewhere raises [Not_in_process].
    A scheduled closure or a {!register_handler} handler is not a
    process, even when it runs while a process waits. *)

type t

type 'a waker
(** A one-shot resumption capability for a suspended process.  Wakers are
    created by {!suspend}; whoever holds one may resume the process with
    a value of type ['a] exactly once. *)

exception Not_in_process
(** Raised by {!delay}, {!suspend} and {!suspend_timeout} when no
    process of the engine is running: called from outside the engine's
    run loops, from a scheduled closure or from a flat handler.  They
    check this themselves, since a closure dispatched inside a nested
    wait (see {!delay}) runs on the waiting process's stack. *)

val create :
  ?seed:int -> ?tie_break:[ `Fifo | `Random ] -> ?queue:[ `Heap | `Calendar ] -> unit -> t
(** [create ()] is a fresh engine with its clock at {!Time.zero}.
    [seed] (default 42) seeds the engine's {!Rng.t}.  [tie_break]
    (default [`Fifo]) selects the ordering of events scheduled for the
    same instant: FIFO, or a random order drawn from a dedicated
    generator (seeded from [seed], independent of {!rng}).  [queue]
    (default [`Heap]) selects the event-queue discipline — the
    {!Eventq} 4-ary heaps or the {!Calendar} bucketed queue; both pop
    in exactly the same [(time, tie, seq)] order, so the choice is a
    pure performance knob and the simulation output is byte-identical
    either way.  Only a heap engine's delays wait nested (see
    {!delay}), so a calendar engine is the flat reference the tests
    compare it with. *)

val now : t -> Time.t
(** [now t] is the current virtual instant.  Callable from anywhere. *)

val rng : t -> Rng.t
val trace : t -> Trace.t

val events_executed : t -> int
(** Number of events executed so far; a cheap progress/regression
    metric used by determinism tests.  A {!suspend_timeout} deadline
    that a {!wake} cancelled is not an event: it never runs and is not
    counted. *)

(** {1 Scheduling} *)

val schedule : t -> ?after:Time.span -> (unit -> unit) -> unit
(** [schedule t ~after f] runs callback [f] at [now t + after] (default:
    the current instant, after already-queued events for that instant).
    [f] must not perform process effects; use {!spawn} for that. *)

val spawn : t -> ?after:Time.span -> ?name:string -> (unit -> unit) -> unit
(** [spawn t ~name f] starts [f] as a new process at [now t + after].
    [name] is reported if the process dies with an uncaught exception. *)

(** {2 Closure-free scheduling}

    {!schedule} allocates a closure (and an [option] for [~after]) per
    event; on the hot path that is the {e only} allocation left.  The
    flat API removes it: a caller registers a handler once and then
    schedules events that carry just the handler's table index and
    small payload slots inside the recycled queue node — zero bytes
    allocated per event in steady state.  Handler registrations are
    engine-local and permanent. *)

val register_handler : t -> (int -> int -> unit) -> int
(** [register_handler t f] adds [f] to the engine's dispatch table and
    returns its index for {!schedule_fn}.  [f a b] receives the two
    payload ints of the event. *)

val schedule_fn : t -> after:Time.span -> fn:int -> a:int -> b:int -> unit
(** [schedule_fn t ~after ~fn ~a ~b] runs handler [fn] with payload
    [(a, b)] at [now t + after].  Allocates nothing in steady state
    (the event node comes off the engine's node pool).
    @raise Invalid_argument on a negative delay or an unregistered
    [fn]. *)

(** {1 Process operations} *)

val delay : t -> Time.span -> unit
(** [delay t d] suspends the calling process for [d] of virtual time.
    [delay t Time.zero_span] yields to other events at the same instant.
    However it waits, the clock, the event count and the same-instant
    tie draw move exactly as if the wake-up had been queued and popped,
    so no output can tell the ways apart.  Let [at = now t + d], and say
    the loop would go on when the running loop's [max_events],
    [run_until] stop and [run_while] predicate would let it dispatch an
    event due at [at]:
    - When nothing queued is due at or before [at], no wait is nested
      (below) due at or before [at], and the loop would go on, the
      process resumes in place, without leaving the call and without
      allocating.
    - Otherwise, on a [`Heap] engine, when the loop would go on and [at]
      is strictly before every nested wait's wake-up, the delay waits
      nested: it dispatches every queued event that orders before its
      wake-up on the calling process's stack, as the loop would, then
      resumes in place without allocating.  Processes resumed there may
      nest in turn.  If the guard trips or the predicate turns false
      first, or a dispatched event raises, the wake-up is queued under
      the key it drew, the enclosing loop stops as it would have
      (guard, predicate) or the exception propagates from it, and a
      later run resumes the process at that key.
    - Otherwise (and always on a [`Calendar] engine) the wake-up is
      queued, and the process's continuation is the one allocation.
    @raise Invalid_argument if [d] is negative.
    @raise Not_in_process if no process of [t] is running. *)

val suspend : t -> ('a waker -> unit) -> 'a
(** [suspend t register] suspends the calling process and hands a waker
    for it to [register]; the process resumes when somebody calls
    {!wake} on it, returning the value passed to {!wake}.  Models do not
    call this directly: every blocked process waits in a {!Condvar},
    which is built on it, {!suspend_timeout} and {!wake}.  A suspension
    always leaves the process; it never waits nested.
    @raise Not_in_process if no process of [t] is running. *)

val suspend_timeout : t -> timeout:Time.span -> ('a waker -> unit) -> 'a option
(** Like {!suspend} but resumes with [None] after [timeout] if the waker
    has not fired by then.  The timeout is a queued event.  In the
    common case the waker fires first; the timeout then stays queued
    until its deadline, but it is recycled there without running,
    moving the clock or counting in {!events_executed}. *)

val wake : 'a waker -> 'a -> bool
(** [wake w v] resumes the suspended process with value [v].  Returns
    [false] (and does nothing) if the waker has already fired — e.g. the
    suspension already timed out. *)

(** {1 Running} *)

val run : ?max_events:int -> t -> unit
(** [run t] executes events until the queue is empty.  [max_events]
    guards against runaway models (default: unlimited).  A run loop may
    be entered from inside a process, but not while a delay waits
    nested (see {!delay}): it would run events due after the waiting
    process's wake-up before it.  The same holds for {!run_until} and
    {!run_while}.
    @raise Failure if the guard trips.
    @raise Invalid_argument if a delay waits nested. *)

val run_until : ?max_events:int -> t -> Time.t -> unit
(** [run_until t stop] executes events with time <= [stop], then sets
    the clock to [stop].  Returns early (with the clock at [stop]) if
    the queue drains first — model worlds contain daemon processes
    (device engines, service threads) that wait forever by design, so
    a drained queue is quiescence, not necessarily deadlock; use
    {!suspended_count} to distinguish them in tests. *)

val run_while : ?max_events:int -> t -> (unit -> bool) -> unit
(** [run_while t p] executes events while [p ()] holds and the queue is
    non-empty.  The predicate is evaluated before each event — use with
    a completion {!Gate} to run a workload to its finish amid daemon
    processes.  [p] should only read the model: before an in-place
    {!delay} it runs inside the delaying process, and before each event
    a nested wait dispatches, inside the waiting process.  When it turns
    false there, it is evaluated again, at the same clock and state, by
    each enclosing nested wait and then by the loop. *)

val suspended_count : t -> int
(** Number of currently suspended processes (waiting on a waker). *)
