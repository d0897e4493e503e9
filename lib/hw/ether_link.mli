(** The shared 10 Mbit/s Ethernet segment.

    One frame occupies the medium at a time (acquisition is FIFO — a
    simplification of CSMA/CD that is exact for the paper's two-machine
    private-Ethernet setup, where the closed request/response loop never
    produces collisions).  A receiving station is notified when a frame
    {e starts} arriving, with the frame's wire time, so the controller
    model can hold its receive engine busy for the duration — that
    store-and-forward occupancy is what caps the paper's throughput.

    A fault injector can drop frames (wire noise, receiver CRC reject)
    or corrupt bytes {e after} the CRC check — the DEQNA misbehaviour
    that justifies software UDP checksums (§4.2.4). *)

type t

type fault =
  | Deliver  (** normal delivery *)
  | Drop  (** frame lost; wire time still elapses *)
  | Corrupt  (** one byte past the Ethernet header flipped after the CRC check *)
  | Corrupt_payload
      (** one byte past offset 74 flipped — guaranteed to hit RPC
          argument/result data, leaving all headers intact; delivers
          unmodified if the frame has no payload *)
  | Duplicate
      (** the frame arrives twice back to back; the sender occupies the
          medium for both copies *)
  | Delay of Sim.Time.span
      (** the frame arrives the given span late (reordering past frames
          sent after it); the sender's occupancy is unchanged.
          [transmit] raises [Invalid_argument] on a negative span *)
  | Reorder
      (** the frame is overtaken by the {e next} frame on the segment:
          it is held and delivered immediately after that frame, or
          after a 1 ms backstop if the segment goes quiet first.  A
          second [Reorder] while one frame is already held releases the
          first *)

type station

val create : ?obs:Obs.Ctx.t -> Sim.Engine.t -> mbps:float -> t
(** With [?obs], the carried/fault counters and a medium-utilization
    probe are registered under site ["ether"]. *)

val attach :
  t ->
  mac:Net.Mac.t ->
  on_frame_start:(frame:Stdlib.Bytes.t -> call:int -> wire:Sim.Time.span -> unit) ->
  station
(** Attaches a station.  [on_frame_start] is invoked — at the instant a
    frame addressed to this station (or to broadcast) begins arriving —
    with the frame bytes, the call id the sender passed to {!transmit}
    and the frame's remaining wire time.  Fault copies (corrupted,
    duplicated, delayed, reordered) arrive with the original's call.
    @raise Invalid_argument if the MAC is already attached. *)

val detach : t -> station -> unit
(** Removes a station (server crash experiments). *)

val transmit : ?call:int -> t -> src:Net.Mac.t -> Stdlib.Bytes.t -> unit
(** [transmit t ~src frame] waits for the medium, occupies it for the
    frame's wire time plus the interframe gap, and delivers to the
    destination (first 6 bytes of the frame).  Blocks the calling
    process for the whole occupancy — the transmitting controller is
    busy throughout (no cut-through is modelled by the {e caller}
    sequencing its QBus transfer before this call).  [call] (default
    {!Sim.Trace.no_call}) travels with the frame to the receiving
    station or the uplink.  When tracing is on, a non-zero wait for the
    medium is recorded as a queueing span attributed to [call]. *)

val wire_span : t -> bytes:int -> Sim.Time.span
val interframe_span : t -> Sim.Time.span

val set_fault_injector : t -> (Stdlib.Bytes.t -> fault) option -> unit

val set_uplink :
  t ->
  (src:Net.Mac.t -> frame:Stdlib.Bytes.t -> call:int -> wire:Sim.Time.span -> unit) option ->
  unit
(** The segment's bridge to the rest of a larger network: a unicast
    frame whose destination MAC matches no attached station is handed to
    the uplink (at transmission start, with its call id and wire time)
    instead of vanishing.  A switch port (library [fleet]) registers
    itself here; [None] — the default — keeps the classic
    single-segment behaviour, so the two-machine reproduction is
    untouched.  Broadcast frames stay on their segment. *)

(** {1 Statistics} *)

val frames_carried : t -> int
val bytes_carried : t -> int
val frames_dropped : t -> int
val frames_corrupted : t -> int
val frames_duplicated : t -> int
val frames_delayed : t -> int
val frames_reordered : t -> int
val utilization : t -> upto:Sim.Time.t -> float
