(** Thread blocking with the scheduler's costs attached.

    An RPC thread parks itself in the call table and waits for the
    interrupt routine to wake it; those two wakeups dominate small-RPC
    software cost (220 µs each, Table VI) and §4.2.7 estimates busy
    waiting would save them.  This module is that wait/wakeup pair with
    the cost model applied:

    - blocking mode (default): {!wait} releases the CPU; {!notify}
      charges the 220 µs scheduler wakeup (plus the uniprocessor long
      path when applicable) to the {e waker}'s CPU, and the woken thread
      pays a dispatch cost when it reacquires a CPU;
    - busy-wait mode ([Config.busy_wait]): {!wait} spins, repeatedly
      releasing and reacquiring its CPU so interrupts can run on a
      uniprocessor; {!notify} merely sets the flag (10 µs).

    A notification arriving before {!wait} is remembered (the RPC
    transporter registers the call, then waits; the result can beat it). *)

type t

val create : obs:Obs.Ctx.t -> Sim.Engine.t -> Hw.Timing.t -> cpus:Hw.Cpu_set.t -> t
(** Each notify→running handoff is journalled in [obs] as a thread
    wakeup and its latency recorded in a [wakeup_latency_us]
    histogram.  {!Machine.new_waiter} is the one way to build one. *)

val wait : t -> Hw.Cpu_set.ctx -> unit

val wait_timeout : t -> Hw.Cpu_set.ctx -> timeout:Sim.Time.span -> [ `Ok | `Timeout ]
(** Timeouts drive the RPC retransmission machinery.  Only available in
    blocking mode; in busy-wait mode the spin loop checks the deadline
    itself. *)

val notify : t -> waker:Hw.Cpu_set.ctx -> unit
(** Wakes (or pre-arms) the waiter, charging wakeup costs to [waker]. *)
