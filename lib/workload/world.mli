(** Construction of the paper's measurement setup: two Fireflies on a
    private Ethernet (§2.1), a binder, one user address space on each
    machine, and the Test interface exported from the server. *)

type t = {
  eng : Sim.Engine.t;
  link : Hw.Ether_link.t;
  binder : Rpc.Binder.t;
  caller : Nub.Machine.t;
  server : Nub.Machine.t;
  caller_node : Rpc.Node.t;
  server_node : Rpc.Node.t;
  caller_rt : Rpc.Runtime.t;
  server_rt : Rpc.Runtime.t;
  obs : Obs.Ctx.t;  (** shared by both machines and the link *)
}

val create :
  ?caller_config:Hw.Config.t ->
  ?server_config:Hw.Config.t ->
  ?seed:int ->
  ?tie_break:[ `Fifo | `Random ] ->
  ?workers:int ->
  ?idle_load:bool ->
  ?export_test:bool ->
  ?auth:Rpc.Secure.key ->
  unit ->
  t
(** [tie_break] (default [`Fifo]) is passed to {!Sim.Engine.create} —
    the simulation-testing harness uses [`Random] to explore
    same-instant event orderings.  Both configs default to
    {!Hw.Config.default}; [workers] (default 8)
    server threads serve the Test interface; [idle_load] (default true)
    starts the background threads that draw ~0.15 CPUs.  [export_test]
    (default true) controls whether the Test interface is exported —
    worker threads serve their whole address space, so tests that need
    an exactly-sized worker pool export their own interface only.
    [auth] exports the Test interface under a shared key (§7 secured
    calls); importers must present the same key. *)

val test_binding :
  t ->
  ?options:Rpc.Runtime.call_options ->
  ?auth:Rpc.Secure.key ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  unit ->
  Rpc.Runtime.binding
(** Binds the caller's address space to the Test interface through
    {!Rpc.Binder.bind}; [auth] must match the key the world was created
    with, if any.  [`Local] instead exports the Test interface from the
    caller's own runtime (once) and binds it over shared memory — the
    paper's RPC-on-one-machine configuration.
    @raise Rpc.Rpc_error.Rpc ([Unbound_interface]) if the world was
    created without the Test export and [transport] is not [`Local]. *)

val add_machine :
  t -> name:string -> config:Hw.Config.t -> station:int -> ip:string -> Nub.Machine.t * Rpc.Node.t * Rpc.Runtime.t
(** Attaches an extra machine (space 1) to the same Ethernet — used by
    multi-client contention scenarios. *)

val run_until_quiet : ?limit:Sim.Time.span -> t -> Sim.Gate.t -> unit
(** Runs the simulation until the gate opens (or [limit], default 600
    simulated seconds, as a hang backstop). *)
