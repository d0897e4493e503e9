(** A switched N-port topology replacing the single shared Ethernet.

    Each port is its own {!Hw.Ether_link} segment (so a machine's DEQNA
    attaches unchanged and transmissions serialize per port, not
    fleet-wide), bridged by a store-and-forward switch: a frame whose
    destination MAC is off-segment reaches the switch via the link's
    uplink hook once fully received, crosses the fabric after a
    configurable forwarding latency, and queues at the destination
    port's egress.  The egress queue is bounded — under incast fan-in
    the overflow is dropped and counted, and the RPC retransmission
    machinery has to recover, exactly the regime the extreme-scale RPC
    literature studies.  A forwarded frame keeps the trace call id it
    arrived with, so its egress wait and delivery attribute to its call.

    All state transitions happen at seeded-engine event granularity, so
    a switch run is a pure function of the simulation seed. *)

type t

val create :
  ?obs:Obs.Ctx.t ->
  Sim.Engine.t ->
  mbps:float ->
  ?latency:Sim.Time.span ->
  ?egress_capacity:int ->
  ports:int ->
  unit ->
  t
(** [create eng ~mbps ~ports ()] builds [ports] per-port segments and
    starts one egress process per port.  [latency] (default 10 us) is
    the fabric forwarding delay per frame; [egress_capacity] (default
    32 frames) bounds each port's egress queue.  With [?obs] the
    aggregate forwarded/dropped counters are registered under site
    ["switch"].
    @raise Invalid_argument on a non-positive port count, rate,
    capacity, or a negative latency. *)

val ports : t -> int

val port_link : t -> int -> Hw.Ether_link.t
(** The segment of port [i]; machines attach to it as to the classic
    shared link.  @raise Invalid_argument if [i] is out of range. *)

val register_mac : t -> mac:Net.Mac.t -> port:int -> unit
(** Teaches the switch that [mac] lives behind [port] (deterministic
    static learning — fleet construction registers each machine as it
    is attached).  @raise Invalid_argument on a duplicate MAC or bad
    port. *)

val set_egress_fault_injector : t -> (port:int -> Bytes.t -> bool) option -> unit
(** When set, a frame about to be queued at [port]'s egress is dropped
    (and counted as an incast drop) if the injector returns [true] —
    lets tests and scenarios force congestion loss deterministically. *)

(** {1 Statistics} *)

val frames_forwarded : t -> int
val frames_dropped_unknown : t -> int
(** Destination MAC never registered. *)

val frames_dropped_incast : t -> int
(** Egress queue full (or fault-injected) at enqueue time. *)

val max_egress_depth : t -> int
(** High-water mark across all ports. *)
