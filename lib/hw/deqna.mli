(** The DEQNA Ethernet controller model.

    Store-and-forward in both directions (no cut-through, §4.2.1): a
    transmitted frame is first read from memory over the QBus, then put
    on the wire; a received frame occupies the receive engine from the
    moment its first bit arrives until its QBus write to memory
    completes.  That serialization — 2045 µs of transmit-engine time and
    2065 µs of receive-engine time per maximum-size packet — is the
    hardware ceiling behind the paper's 4.65 Mbit/s RPC throughput.
    With [cut_through] enabled, QBus and wire transfers overlap and each
    engine is busy only for the longer of the two plus a small setup,
    which is §4.2.1's hypothetical better controller.

    Receive needs a buffer {e credit} (a free packet buffer handed down
    by the driver); a frame arriving while the engine is busy or
    creditless is dropped and counted — the driver's on-the-fly buffer
    replacement (§3.2) exists precisely to keep credits available.

    Received frames accumulate in a completion queue; the controller
    raises the interrupt line once and leaves it asserted until the
    driver calls {!interrupt_done}, so one interrupt can drain many
    packets (§3.2 reports several hundred).

    Each frame carries the trace call id it was queued under
    ({!queue_tx}) through the transmit ring, the link and the receiving
    controller's completion queue ({!take_rx}), so the controller's
    spans and the receiving driver attribute to that call. *)

type t

val create :
  Sim.Engine.t ->
  Timing.t ->
  link:Ether_link.t ->
  qbus:Sim.Resource.t ->
  mac:Net.Mac.t ->
  ?site:string ->
  obs:Obs.Ctx.t ->
  unit ->
  t
(** [site] names the machine in trace spans (defaults to the MAC
    address); the controller records the Table VI hardware steps —
    QBus transfers and Ethernet transmission time — when tracing is
    enabled.  The frame counters and a queue-depth probe are registered
    in [obs] under [deqna.*], and every completed tx/rx frame is
    journalled there. *)

val mac : t -> Net.Mac.t
val station : t -> Ether_link.station

val detach_from_link : t -> unit
(** Stops receiving from the wire (machine power-off). *)

val reattach_to_link : t -> unit
(** Resumes receiving with the controller's own handler. *)

(** {1 Driver interface — transmit} *)

val queue_tx : ?call:int -> t -> Stdlib.Bytes.t -> unit
(** Appends a frame to the transmit ring, sent under trace call [call]
    (default {!Sim.Trace.no_call}).  The ring is unbounded: the RPC
    workload self-limits to one outstanding packet per thread. *)

val start_transmit : t -> unit
(** The CPU-0 "prod" (paper §3.1.3): starts the transmit engine if it
    is idle.  Idempotent. *)

(** {1 Driver interface — receive} *)

val add_rx_credits : t -> int -> unit
(** Hands [n] free receive buffers to the controller. *)

val set_interrupt_handler : t -> (unit -> unit) -> unit
(** [f] is invoked (in a fresh process) when the completion queue goes
    non-empty while the interrupt line is clear. *)

val take_rx : t -> (Stdlib.Bytes.t * int) option
(** Pops the oldest completed receive, if any, with the call id its
    sender queued it under. *)

val peek_rx : t -> (Stdlib.Bytes.t * int) option
(** The oldest completed receive without removing it — a pure read, used
    by the interrupt handler to attribute its entry cost to the call of
    the frame it is about to drain. *)

val interrupt_done : t -> unit
(** Clears the interrupt line; re-raises immediately if completions
    arrived while the driver was finishing. *)

val last_irq_at : t -> Sim.Time.t
(** When the interrupt line was last asserted — the driver measures
    interrupt service latency against this. *)

(** {1 Statistics} *)

val tx_frames : t -> int
val rx_frames : t -> int

val rx_overruns : t -> int
(** Frames lost because the receive engine was still busy with an
    earlier frame. *)

val rx_no_buffer : t -> int
(** Frames lost for want of a receive buffer credit. *)
