(** A real Unix UDP backend for the RPC wire format.

    Each datagram's payload is a complete Ethernet/IPv4/UDP/RPC frame
    produced by {!Rpc.Frames.build} — exactly the bytes the simulator
    puts on its wire and the wire fuzzer mutates — tunnelled through a
    loopback kernel socket and validated on receive by the same
    {!Rpc.Frames.parse}, software checksums included.

    The protocol is {!Rpc.Exchange}, the core the simulated transport
    drives too; this module is its socket driver — one datagram per
    frame, and each wait one blocking receive under the socket's
    receive timeout, set to the time left before the absolute
    retransmission deadline.  A call that needs no retransmission costs
    four system calls: the client's [send] and [recvfrom] on a socket
    connected to the server, the server's [recvfrom] and [sendto].  The
    server is one receive loop over every activity, executing calls
    inline.  Everything runs in wall-clock time, outside the simulator;
    [Hw.Timing] is used only for frame-format constants. *)

exception Call_failed of string
(** The loopback exchange failed: retransmission budget exhausted, or
    the server answered with an [Error_reply] (whose message this
    carries). *)

val available : unit -> bool
(** Whether a loopback UDP socket can be created and bound — [false] in
    sandboxes without network namespaces; callers should skip, not
    fail. *)

val caller_endpoint : Rpc.Frames.endpoint
(** Station 1 / 16.0.0.1 — the simulated world's caller identity, so
    frames are directly comparable. *)

val server_endpoint : Rpc.Frames.endpoint
(** Station 2 / 16.0.0.2. *)

val timing : unit -> Hw.Timing.t
(** The default-configuration timing model both sides use for frame
    formatting (payload bound, checksum policy). *)

type impl = Rpc.Marshal.value list -> Rpc.Marshal.value list
(** A server procedure: full decoded argument list in, [Var_out]
    results out — {!Rpc.Runtime.impl} minus the simulated CPU context. *)

(** {1 Server} *)

type server

val start_server :
  intf:Rpc.Idl.interface -> impls:impl array -> unit -> (server, string) result
(** Binds a fresh loopback port and serves [intf] from a background
    thread until {!stop_server}.  [Error] when sockets are unavailable.
    @raise Invalid_argument unless there is one impl per procedure. *)

val server_port : server -> int
val server_rejected : server -> int
(** Datagrams rejected by {!Rpc.Frames.parse} — malformed frames never
    reach dispatch. *)

val stop_server : server -> unit
(** Stops the thread and closes the socket; idempotent in effect. *)

(** {1 Client} *)

type client

val connect :
  ?capture:(dir:[ `Tx | `Rx ] -> Stdlib.Bytes.t -> unit) ->
  ?send_filter:(Stdlib.Bytes.t -> bool) ->
  ?retransmit_after:float ->
  ?max_retries:int ->
  ?thread:int ->
  port:int ->
  intf:Rpc.Idl.interface ->
  unit ->
  (client, string) result
(** A client whose socket is connected to the server on loopback
    [port], so the kernel drops datagrams from any other address.  An
    ICMP port-unreachable for an earlier datagram, which the connected
    socket reports as ECONNREFUSED on its next send or receive, counts
    as a lost datagram: a call to a port nobody serves ends in
    [Call_failed] after its retries.

    [capture] observes every frame as sent ([`Tx], before [send_filter])
    or received ([`Rx]) — the wire-byte-equality tests hang off it.
    [send_filter] returning [false] drops the frame without sending
    (fault injection); [retransmit_after] (seconds, default 0.05) and
    [max_retries] (default 40) bound the real-time retransmission loop.
    The receive timeout is kept in whole milliseconds, and Linux keeps
    it in timer ticks, so a retransmission goes out up to one tick after
    its deadline.  [thread] (default 1) names the activity, making
    headers — and therefore frames — reproducible. *)

val call :
  client -> proc_idx:int -> args:Rpc.Marshal.value list -> Rpc.Marshal.value list
(** One remote call over the socket; returns the [Var_out] results.
    @raise Call_failed on give-up or a server [Error_reply]. *)

val send_raw : client -> Stdlib.Bytes.t -> unit
(** Sends arbitrary bytes as one datagram — malformed-frame injection
    for the conformance suite. *)

val close : client -> unit
