(** An IP gateway joining two Ethernet segments.

    The paper keeps RPC on IP/UDP precisely so calls can cross gateways
    (§4.2.6: dropping IP "would make it impossible to use RPC via an IP
    gateway"; §7: RPC "works over wide area networks").  This router
    makes that concrete: it store-and-forwards IPv4 packets between two
    segments through DEQNA-class controllers, decrementing TTL and
    recomputing the IP header checksum on the real bytes.  The UDP
    checksum — computed over the pseudo-header of the unchanged
    source/destination addresses — survives forwarding, which is exactly
    the end-to-end property the paper's design relies on.

    Hosts reach off-segment peers by addressing their frames to the
    gateway's MAC; [Rpc.Binder] learns that from the resolver installed
    by the world builder (see {!Workload}-style setups or
    [examples/wan_rpc.ml]). *)

type t

type port = A | B

val create :
  Sim.Engine.t ->
  name:string ->
  config:Hw.Config.t ->
  link_a:Hw.Ether_link.t ->
  station_a:int ->
  ip_a:Net.Ipv4.Addr.t ->
  link_b:Hw.Ether_link.t ->
  station_b:int ->
  ip_b:Net.Ipv4.Addr.t ->
  unit ->
  t
(** A two-port router with a single forwarding CPU, which spends 300 µs
    of software forwarding time per packet, in the range of late-1980s
    IP routers. *)

val port_mac : t -> port -> Net.Mac.t

val add_route : t -> Net.Ipv4.Addr.t -> mask_bits:int -> port -> unit
(** Longest-prefix-match forwarding entry. *)

val add_host : t -> port -> Net.Ipv4.Addr.t -> Net.Mac.t -> unit
(** Static ARP: the next-hop MAC for a directly attached host. *)

(** {1 Statistics} *)

val forwarded : t -> int
val dropped_no_route : t -> int
val dropped_ttl : t -> int
val dropped_no_arp : t -> int
val dropped_not_ip : t -> int
