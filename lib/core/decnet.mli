(** The DECNet transport — the paper's third bind-time transport option
    (§3.1: "transport to another machine by a custom RPC packet exchange
    protocol layered on IP/UDP, by DECNet to another machine, and by
    shared memory").

    This is an NSP-flavoured {e connection-oriented} sequenced-message
    service over raw Ethernet frames (DECNet's ethertype 0x6003): a
    three-segment handshake establishes a connection, data segments are
    sequenced and stop-and-wait acknowledged with retransmission,
    arbitrary-size messages are segmented and reassembled, and both
    sides detect duplicates by sequence number.  Frames carry a real
    software checksum, verified end to end.

    The paper gives no DECNet cost figures; the per-segment software
    costs here (see the constants in the implementation) are
    representative of a general-purpose transport on a 1-MIPS machine —
    deliberately heavier than the custom RPC path, which is the reason
    the custom path exists.

    The module is pure transport; RPC-over-DECNet glue (request/reply
    framing and dispatch) lives in {!Runtime}. *)

type endpoint
type conn

val ethertype : int
(** 0x6003. *)

val create : Node.t -> endpoint
(** A DECNet protocol engine for the node, registered with the node's
    interrupt demultiplexer.  Create one per node: a second engine
    displaces the first's ethertype handler.  {!Binder.decnet_endpoint}
    keeps one per node for the binder's world. *)

val listen : endpoint -> space:int -> (conn -> unit) -> unit
(** Accept connections addressed to [space]; the callback runs in a
    fresh thread on the endpoint's machine.  Idempotent per space
    (subsequent calls replace the handler for {e new} connections). *)

val connect :
  endpoint ->
  Hw.Cpu_set.ctx ->
  peer:Net.Mac.t ->
  space:int ->
  ?retransmit_after:Sim.Time.span ->
  ?max_retries:int ->
  unit ->
  conn
(** Opens a connection (blocks through the handshake).
    @raise Rpc_error.Rpc ([Call_failed]) if the peer never confirms. *)

val send_message : conn -> Hw.Cpu_set.ctx -> Stdlib.Bytes.t -> unit
(** Segments, transmits and waits for the acknowledgment of every
    segment.  Concurrent senders on one connection are serialized.
    @raise Rpc_error.Rpc ([Call_failed]) on retransmission exhaustion
    or a closed connection. *)

val recv_message : conn -> Hw.Cpu_set.ctx -> timeout:Sim.Time.span -> Stdlib.Bytes.t option
(** Next complete reassembled message, [None] on timeout or close. *)

val close : conn -> Hw.Cpu_set.ctx -> unit
(** Sends a disconnect and tears the connection down (idempotent). *)

val is_open : conn -> bool

(** {1 Statistics} *)

val connections_accepted : endpoint -> int
val segments_sent : endpoint -> int
val segments_retransmitted : endpoint -> int
val checksum_rejects : endpoint -> int
