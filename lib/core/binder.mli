(** The name service: exporters register interfaces, importers obtain
    bindings.

    Binding is where the transport is chosen (§3.1), and {!bind} is the
    one place that chooses it.  The binder itself is a zero-cost oracle
    — the paper measures calls on established bindings, not binding
    time. *)

type t

val create :
  ?resolve:(caller:Nub.Machine.t -> server:Nub.Machine.t -> Frames.endpoint option) -> unit -> t
(** [resolve] supplies the next-hop endpoint for inter-machine bindings
    — e.g. the MAC of an IP gateway when caller and server sit on
    different Ethernet segments ([None] = deliver directly, the default
    single-segment behaviour).  The server's IP always remains the
    packet's IP destination; only the link-layer next hop changes. *)

val export :
  ?auth:Secure.key ->
  t ->
  Runtime.t ->
  Idl.interface ->
  impls:Runtime.impl array ->
  workers:int ->
  unit
(** Installs the interface in the runtime (starting its workers) and
    records it for importers.  With [auth], remote callers must present
    the key at import time.
    @raise Invalid_argument if (name, version) is already exported. *)

val bind :
  t ->
  Runtime.t ->
  server:Runtime.t ->
  Idl.interface ->
  ?options:Runtime.call_options ->
  ?auth:Secure.key ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  unit ->
  Runtime.binding
(** The §3.1 placement rule, binding a caller runtime to the [server]
    runtime that exports the interface:
    - a server on the caller's machine is reached over shared memory,
      whatever [transport] asks for;
    - [`Auto] (default) reaches a remote server with the custom
      IP/UDP/Ethernet packet exchange, via the [resolve] hook;
    - [`Local] against a remote server raises [Unbound_interface];
    - [`Decnet] binds a DECNet session to a remote server ([auth] is
      unsupported — DECNet calls present no key).
    [options] (default: {!Runtime.default_options}) is the packet
    exchange's retransmission schedule.
    @raise Rpc_error.Rpc ([Unbound_interface]) if [server] does not
    export the interface. *)

val import :
  t ->
  Runtime.t ->
  name:string ->
  version:int ->
  ?options:Runtime.call_options ->
  ?auth:Secure.key ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  unit ->
  Runtime.binding
(** Looks the exporter up by name and {!bind}s to it.
    @raise Rpc_error.Rpc ([Unbound_interface]) if nobody exports it.
    Key distribution is out of band: the binder does not check [auth];
    a missing or wrong key surfaces at call time. *)

val decnet_endpoint : t -> Node.t -> Decnet.endpoint
(** The node's DECNet engine, made on first use and kept by this
    binder: one binder per world makes every DECNet binding in it. *)
