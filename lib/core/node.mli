(** The per-machine RPC kernel component: the shared call table and the
    packet demultiplexer that runs {e inside the Ethernet interrupt
    routine} (paper §3.2).

    The call table is shared among all address spaces and the Nub so the
    interrupt handler can find and directly awaken the waiting thread —
    calling or serving — for any incoming packet, avoiding the
    traditional extra wakeup through a datalink thread.  Packets that
    match no table entry (a call for which no server thread is waiting,
    or any packet for an unknown activity) take the slow path.

    A node also provides the send primitive that charges the Table VI
    sending-side costs and hands the frame to the driver. *)

type t

(** An incoming packet as handed to a thread: who sent it, its RPC
    header, the payload and the call id it carries. *)
type delivery = {
  d_src : Frames.endpoint;
  d_hdr : Proto.header;
  d_payload : Wire.Bytebuf.View.t;
      (** aliases the received frame (zero-copy); the simulated packet
          buffer is returned to the pool by the demultiplexer, but the
          real bytes are GC-owned and immutable, so the view stays
          valid while the runtime reassembles fragments *)
  d_call : int;
      (** the trace call id the frame was sent under, carried with it
          across the wire ({!Sim.Trace.no_call} when untraced) *)
}

(** A parked thread: the interrupt handler appends deliveries to its
    inbox and wakes it. *)
module Entry : sig
  type t

  val inbox_pop : t -> delivery option
end

val create : Nub.Machine.t -> t

val machine : t -> Nub.Machine.t
val timing : t -> Hw.Timing.t
val endpoint : t -> Frames.endpoint

val new_entry : t -> Entry.t

(** {1 Call-table registration} *)

val register_caller : t -> Proto.Activity.t -> Entry.t -> unit
(** Registers the outstanding call of an activity (Transporter step).
    @raise Invalid_argument if the activity already has one — an
    activity is a single thread and makes one call at a time. *)

val unregister_caller : t -> Proto.Activity.t -> unit

val register_fragment_sink : t -> Proto.Activity.t -> Entry.t -> unit
(** Routes subsequent call fragments and fragment acks of an activity
    to the server worker already assembling its call. *)

val unregister_fragment_sink : t -> Proto.Activity.t -> unit

val fragment_sinks : t -> int
(** Number of fragment sinks currently registered.  Nonzero at
    quiescence means a worker leaked its sink — an invariant the
    simulation-testing harness audits. *)

val outstanding_callers : t -> int
(** Number of activities with a registered outstanding call.  Nonzero at
    quiescence means a caller thread is stuck or leaked its
    registration. *)

val join_worker_pool : t -> space:int -> Entry.t -> unit
(** Parks an idle server worker where the interrupt handler can find it
    (FIFO per address space). *)

val set_slow_sink : t -> space:int -> (delivery -> unit) -> unit
(** Consumer for packets taking the traditional datalink path.
    @raise Invalid_argument if the space already has a sink. *)

val set_ethertype_handler :
  t -> ethertype:int -> (ctx:Hw.Cpu_set.ctx -> frame:Stdlib.Bytes.t -> Nub.Driver.verdict) -> unit
(** Routes frames of a non-IP ethertype to another protocol engine —
    how the DECNet transport receives its frames.  The handler runs in
    the interrupt routine and owns the frame's pool buffer on
    [Consumed]. *)

(** {1 Waiting and sending} *)

val wait : Entry.t -> Hw.Cpu_set.ctx -> unit
val wait_timeout : Entry.t -> Hw.Cpu_set.ctx -> timeout:Sim.Time.span -> [ `Ok | `Timeout ]

val send : t -> ctx:Hw.Cpu_set.ctx -> dst:Frames.endpoint -> hdr:Proto.header ->
  payload:Stdlib.Bytes.t -> payload_pos:int -> payload_len:int -> unit
(** Charges "Finish UDP header", the software checksum, and the
    unattributed remainder to the calling thread's CPU, then queues the
    frame through the driver (which charges the trap/queue/IPI steps). *)

(** {1 Statistics} *)

val stale_packets : t -> int
(** Consumed packets that matched no table entry and were not calls. *)

val checksum_rejects : t -> int
val calls_fast_path : t -> int
val calls_slow_path : t -> int
