(** The per-address-space RPC runtime: caller stubs, server workers,
    and the two fast-path transports.

    A runtime lives in one user address space of one machine.  Exporting
    an interface installs server stubs and starts worker threads that
    park themselves in the machine's shared call table (so incoming
    calls are dispatched directly from the Ethernet interrupt routine);
    importing an interface yields a {!binding} whose transport was
    chosen at bind time (§3.1): shared memory for a server on the same
    machine, the custom packet-exchange protocol over IP/UDP/Ethernet
    or a DECNet session for a remote one.  {!Binder} makes that choice;
    a binding is one of the three, and {!call} matches on it.

    {!call} is the generic stub: it performs the five caller-stub steps
    of §3.1.1 (Starter, marshal, Transporter, unmarshal, Ender) with the
    Table VII costs and marshalling per Tables II–V.  The packet
    exchange itself — fragments, retransmission, duplicate suppression —
    is {!Exchange}; this runtime is its simulated driver. *)

type t

val create : Node.t -> space:int -> t
(** @raise Invalid_argument if [space] is already taken on the node's
    machine. *)

val node : t -> Node.t
val machine : t -> Nub.Machine.t
val space : t -> int

(** {1 Clients (activities)} *)

(** One calling thread's RPC identity: an {e activity} makes one call at
    a time with increasing sequence numbers. *)
type client

val new_client : t -> client

(** {1 Server side} *)

type impl = Hw.Cpu_set.ctx -> Marshal.value list -> Marshal.value list
(** A server procedure: receives every declared argument (placeholders
    in [Var_out] positions), returns the values of the [Var_out]
    arguments in declaration order.  Charge the procedure's own compute
    to the given CPU context. *)

val export : ?auth:Secure.key -> t -> Idl.interface -> impls:impl array -> workers:int -> unit
(** Installs the interface and starts [workers] threads serving remote
    calls plus one serving same-machine calls.  With [auth], remote
    calls must arrive sealed under the key (§7's authenticated-call
    hooks); same-machine calls are inside the trust boundary and pass.
    @raise Invalid_argument if the implementation count does not match
    the interface or the interface is already exported. *)

(** {1 Caller side} *)

type backoff = Exchange.backoff = {
  multiplier : float;
  max_interval : Sim.Time.span;
}
(** Capped exponential backoff for the retransmission interval; any sign
    of progress from the server resets it (see {!Exchange}). *)

type call_options = Exchange.options = {
  retransmit_after : Sim.Time.span;
  max_retries : int;
  backoff : backoff option;
      (** [None] (the default) keeps the paper's fixed interval, so the
          Table I / Table X reproductions are unchanged *)
}
(** A binding's retransmission schedule, run by {!Exchange.Caller}. *)

val default_options : call_options
(** The paper's schedule, which every server runs: a first
    retransmission after 600 ms (§5's recovery took about that long),
    10 retries, no backoff. *)

type binding
(** One of the three transports: the packet exchange, shared memory or
    a DECNet session. *)

val bind_ether :
  ?auth:Secure.key ->
  dst:Frames.endpoint ->
  server_space:int ->
  Idl.interface ->
  options:call_options ->
  binding
(** Normally obtained via {!Binder}, which resolves the name and picks
    the transport.  [auth] seals calls under the shared key. *)

val bind_local : server:t -> Idl.interface -> binding
(** Shared memory with a runtime on the caller's machine. *)

val bind_decnet :
  t -> ep:Decnet.endpoint -> peer:Net.Mac.t -> server_space:int -> Idl.interface -> binding
(** The third transport (§3.1): calls travel over a sequenced DECNet
    connection, established lazily and reused; the transport provides
    reliability, so the RPC layer does no retransmission of its own. *)

val decnet_listen : t -> Decnet.endpoint -> unit
(** Serve this runtime's exports to DECNet connections addressed to its
    space (one server thread per connection). *)

val binding_interface : binding -> Idl.interface

val is_local : binding -> bool
(** Whether the binding is the shared-memory transport. *)

val is_exported : t -> Idl.interface -> bool
(** Whether {!export} has installed this interface on the runtime. *)

val call :
  binding ->
  client ->
  Hw.Cpu_set.ctx ->
  proc_idx:int ->
  args:Marshal.value list ->
  Marshal.value list
(** Synchronous remote procedure call; returns the [Var_out] values.
    The calling thread must hold a CPU ([ctx]) on the caller machine;
    it is released while blocked.
    @raise Rpc_error.Rpc on type errors, dispatch errors, or
    communication failure after the retry budget. *)

val call_by_name : binding -> client -> Hw.Cpu_set.ctx -> proc:string -> args:Marshal.value list -> Marshal.value list

(** {1 Statistics} *)

val calls_made : t -> int
val calls_served : t -> int
val retransmissions : t -> int
val duplicates_suppressed : t -> int
val busy_replies : t -> int
val server_activities : t -> int
(** Activities with per-caller state currently retained at this
    server. *)

val set_execution_probe : t -> (Proto.Activity.t -> int -> unit) option -> unit
(** Instrumentation hook for the simulation-testing harness (library
    [check]): the probe fires with the call's [(activity, seq)] each
    time this runtime is about to execute a call body arriving over the
    packet-exchange transport — duplicate-suppressed packets do not
    fire it.  A second fire for the same pair is an at-most-once
    violation.  [None] (the default) disables the hook. *)
