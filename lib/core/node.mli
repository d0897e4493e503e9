(** The per-machine RPC kernel component: the shared call table and the
    packet demultiplexer that runs {e inside the Ethernet interrupt
    routine} (paper §3.2).

    The call table is shared among all address spaces and the Nub so the
    interrupt handler can find and directly awaken the waiting thread —
    calling or serving — for any incoming packet, avoiding the
    traditional extra wakeup through a datalink thread.  Packets that
    match no table entry (a call for which no server thread is waiting,
    or any packet for an unknown activity) take the slow path.

    Each address space a runtime serves has one {!Nub.Waiter.Pool.t}:
    its idle server threads park there, the interrupt routine hands a
    call to the longest-parked one with a single wakeup, and a call
    that finds none parked goes to the datalink thread, which queues it
    for the next server thread of the space to finish.  The runtime's
    shared-memory transport serves same-machine calls from a pool of the
    same kind.

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

val create : Nub.Machine.t -> t

val machine : t -> Nub.Machine.t
val timing : t -> Hw.Timing.t
val endpoint : t -> Frames.endpoint

(** {1 Call-table registration}

    A registered thread waits on a {!Nub.Waiter.t}, and the interrupt
    handler notifies it with each packet it routes there. *)

val register_caller : t -> Proto.Activity.t -> delivery Nub.Waiter.t -> unit
(** Registers the outstanding call of an activity (Transporter step).
    @raise Invalid_argument if the activity already has one — an
    activity is a single thread and makes one call at a time. *)

val unregister_caller : t -> Proto.Activity.t -> unit

val register_fragment_sink : t -> Proto.Activity.t -> delivery Nub.Waiter.t -> unit
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

val serve_space : t -> space:int -> delivery Nub.Waiter.Pool.t
(** Claims [space] for one runtime's server threads and returns the
    pool they take its calls from.  A call naming a space nobody serves
    counts as stale.
    @raise Invalid_argument if the space is already served. *)

val set_ethertype_handler :
  t -> ethertype:int -> (ctx:Hw.Cpu_set.ctx -> frame:Stdlib.Bytes.t -> Nub.Driver.verdict) -> unit
(** Routes frames of a non-IP ethertype to another protocol engine —
    how the DECNet transport receives its frames.  The handler runs in
    the interrupt routine and owns the frame's pool buffer on
    [Consumed]. *)

(** {1 Sending} *)

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
