(** A typed, bounded journal of simulation events.

    Where {!Sim.Trace} records {e intervals} (for latency accounting),
    the journal records {e points}: the discrete protocol and kernel
    events — packets, retransmissions, interrupts, wakeups — whose
    ordering explains a timeline.  It is a fixed-capacity ring: when
    full, the oldest entry is overwritten and counted in {!dropped}, so
    leaving it enabled during a long throughput run costs O(capacity)
    memory, not O(events). *)

type event =
  | Packet_tx of { bytes : int }
  | Packet_rx of { bytes : int }
  | Retransmit of { seq : int }
  | Ack of { seq : int }
  | Interrupt
  | Ipi
  | Thread_wakeup
  | Bufpool_exhausted
  | Mark of string  (** free-form annotation, e.g. phase boundaries *)

type entry = { at : Sim.Time.t; site : string; ev : event }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 8192; raises [Invalid_argument] if < 1. *)

val record : t -> at:Sim.Time.t -> site:string -> event -> unit
(** Allocates nothing: the ring stores the event's fields, not the
    event, and keeps [site] itself (pass a long-lived string).  A
    [bytes] or [seq] argument must lie in [[-2^58, 2^58)]. *)

val entries : t -> entry list
(** Oldest first, each rebuilt from the ring's fields. *)

val length : t -> int

val total : t -> int
(** Number of events ever recorded (retained + dropped). *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val clear : t -> unit

val event_label : event -> string
(** Short human-readable name, e.g. ["packet tx"]. *)
