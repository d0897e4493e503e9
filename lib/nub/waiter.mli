(** Thread blocking with the scheduler's costs attached.

    An RPC thread parks itself in the call table and waits for the
    interrupt routine to hand it a packet; those two wakeups dominate
    small-RPC software cost (220 µs each, Table VI) and §4.2.7 estimates
    busy waiting would save them.  This module is that wait/wakeup pair
    with the cost model applied, and the wakeup carries what the thread
    was woken for:

    - blocking mode (default): {!wait} releases the CPU; {!notify}
      charges the 220 µs scheduler wakeup (plus the uniprocessor long
      path when applicable) to the {e waker}'s CPU, and the woken thread
      pays a dispatch cost when it reacquires a CPU;
    - busy-wait mode ([Config.busy_wait]): {!wait} spins, repeatedly
      releasing and reacquiring its CPU so interrupts can run on a
      uniprocessor; {!notify} merely sets the flag (10 µs).

    A value notified while the thread is not blocked is queued, and the
    next {!poll} or wait takes it with no dispatch charge (the RPC
    transporter registers the call, then waits; the result can beat
    it). *)

type 'a t

val create :
  obs:Obs.Ctx.t ->
  wake_hist:Obs.Metrics.Histogram.t ->
  Sim.Engine.t ->
  Hw.Timing.t ->
  cpus:Hw.Cpu_set.t ->
  'a t
(** Each notify→running handoff is journalled in [obs] as a thread
    wakeup and its latency recorded in [wake_hist], the machine's
    [wakeup_latency_us] histogram, which the machine looks up once for
    all its waiters.  {!Machine.new_waiter} is the one way to build
    one. *)

val wait : 'a t -> Hw.Cpu_set.ctx -> 'a
(** The oldest queued value, or else the next one notified. *)

val wait_timeout : 'a t -> Hw.Cpu_set.ctx -> timeout:Sim.Time.span -> 'a option
(** Like {!wait}, but [None] if nothing arrives within [timeout].
    Timeouts drive the RPC retransmission machinery.  In busy-wait mode
    the spin loop checks the deadline itself. *)

val poll : 'a t -> Hw.Cpu_set.ctx -> 'a option
(** The oldest queued value, without blocking. *)

val notify : 'a t -> waker:Hw.Cpu_set.ctx -> 'a -> unit
(** Hands the value to the waiting thread, or queues it, charging the
    wakeup costs to [waker]. *)

(** Idle server threads and the work that found none of them idle:
    the call table's per-address-space worker pool (§3.2). *)
module Pool : sig
  type 'a waiter := 'a t
  type 'a t

  val create : unit -> 'a t

  val offer : 'a t -> waker:Hw.Cpu_set.ctx -> 'a -> bool
  (** Notifies the longest-parked idle thread with the value, or
      returns [false] if none is parked. *)

  val queue : 'a t -> 'a -> unit
  (** Keeps the value for the next thread that asks ({!next}). *)

  val next : 'a t -> 'a waiter -> Hw.Cpu_set.ctx -> 'a
  (** The oldest queued value; if there is none, parks the thread's
      waiter as idle and waits for an {!offer}. *)
end
