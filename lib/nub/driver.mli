(** The Ethernet driver (paper §3.1.3 and §3.2).

    {b Send}: the caller's thread — already holding a CPU — traps to the
    Nub, queues the packet on the DEQNA transmit ring, and triggers an
    interprocessor interrupt; CPU 0's interrupt routine prods the
    controller.  The calling thread returns immediately (its subsequent
    call-table registration overlaps transmission on a multiprocessor).

    {b Receive}: the controller interrupt runs on CPU 0 at interrupt
    priority.  For each completed frame the driver first replaces the
    controller's receive buffer from the shared pool (on-the-fly
    replacement), then runs the RPC fast-path demultiplexer {e in the
    interrupt routine}.  If the demultiplexer finds no waiting RPC
    thread, the frame takes the traditional slow path: an extra wakeup
    hands it to the datalink thread, which delivers it to whatever
    non-fast-path consumer is registered.

    {b Call ids}: {!send} hands the controller the sending context's
    trace call id with the frame; the interrupt routine and the datalink
    thread stamp their context with the id the frame arrives with, so
    the handlers' charges (and whatever thread they wake) attribute to
    that call. *)

type t

(** Verdict of the fast-path demultiplexer run inside the interrupt
    routine.  The handler is expected to charge its own costs (header
    demux, checksum, wakeup) to [ctx] using the Table VI labels. *)
type verdict =
  | Consumed  (** handled entirely in the interrupt routine *)
  | To_datalink  (** no waiting thread: punt to the datalink thread *)
  | Dropped of string  (** malformed / failed checksum: counted, freed *)

val create :
  obs:Obs.Ctx.t ->
  Sim.Engine.t ->
  Hw.Timing.t ->
  cpus:Hw.Cpu_set.t ->
  deqna:Hw.Deqna.t ->
  pool:Bufpool.t ->
  t
(** The driver registers its [driver.*] counters in [obs], records an
    [interrupt_latency_us] histogram (line assertion to handler entry),
    and journals every interrupt and interprocessor interrupt.  Built
    by {!Machine.create}. *)

val set_fast_handler : t -> (ctx:Hw.Cpu_set.ctx -> frame:Stdlib.Bytes.t -> verdict) -> unit
val set_datalink_handler : t -> (ctx:Hw.Cpu_set.ctx -> frame:Stdlib.Bytes.t -> unit) -> unit

val start : t -> rx_buffers:int -> unit
(** Allocates the controller's initial receive buffers from the pool
    and enables the receive interrupt. *)

val send : t -> ctx:Hw.Cpu_set.ctx -> Stdlib.Bytes.t -> unit
(** Charges the Table VI sending-machine kernel steps to the calling
    thread's CPU, queues the frame under the context's trace call id,
    and fires the CPU-0 prod.  Returns as soon as the packet is queued
    (before it is on the wire). *)

(** {1 Statistics} *)

val frames_received : t -> int
val frames_to_datalink : t -> int
val frames_dropped : t -> int
val interrupts_taken : t -> int
