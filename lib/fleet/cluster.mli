(** An N-node cluster: one engine, a switched topology, N machines each
    on its own switch port with its own RPC node/runtime and receive
    buffer pool, one {!Rpc.Binder}, and per-node + fleet-wide latency
    histograms in one {!Obs.Ctx}.

    The 2-machine {!Workload.World} remains the paper-reproduction
    path; a cluster is what the fleet scenarios and the scale tests
    build on. *)

type node = {
  nd_id : int;
  nd_name : string;  (** ["node<i>"] — also the node's metrics site *)
  nd_machine : Nub.Machine.t;
  nd_rpc : Rpc.Node.t;
  nd_rt : Rpc.Runtime.t;
  nd_hist : Obs.Metrics.Histogram.t;
      (** latency (us) of calls {e issued from} this node *)
}

type t = {
  cl_eng : Sim.Engine.t;
  cl_obs : Obs.Ctx.t;
  cl_switch : Topology.t;
  cl_nodes : node array;
  cl_binder : Rpc.Binder.t;  (** makes every binding in the cluster *)
  mutable cl_binds : int;  (** how many {!bind} calls were made *)
  cl_fleet_hist : Obs.Metrics.Histogram.t;
      (** every call latency fleet-wide, site ["fleet"] *)
}

val max_nodes : int
(** 200: the station-addressing limit on a cluster's size. *)

val create :
  ?seed:int ->
  ?config:Hw.Config.t ->
  ?config_of:(int -> Hw.Config.t) ->
  ?switch_latency:Sim.Time.span ->
  ?egress_capacity:int ->
  ?pool_buffers:int ->
  nodes:int ->
  unit ->
  t
(** [config_of i] (default: the constant [config], default
    {!Hw.Config.default}) picks node [i]'s machine configuration —
    how straggler scenarios slow one server down.  The cluster makes its
    own {!Obs.Ctx} ([cl_obs]), and its machines draw no background
    load: fleet tails are measured without the paper's idle load.
    @raise Invalid_argument if [nodes < 2] or [nodes > max_nodes]. *)

val node : t -> int -> node
val nodes : t -> int

val export : t -> node:int -> ?workers:int -> unit -> unit
(** Exports the standard {!Workload.Test_interface} from node [node]'s
    runtime (default 8 workers).
    @raise Invalid_argument if the node already exports it. *)

val bind :
  t -> client:int -> server:int -> ?options:Rpc.Runtime.call_options -> unit -> Rpc.Runtime.binding
(** Binds node [client]'s runtime to node [server]'s Test interface
    through {!Rpc.Binder.bind}: shared memory when [client = server],
    the packet exchange across the switch otherwise.  Counted in
    [cl_binds].
    @raise Rpc.Rpc_error.Rpc ([Unbound_interface]) if [server] has not
    exported it. *)

val run_until_quiet : t -> Sim.Gate.t -> unit
(** Like {!Workload.World.run_until_quiet}: drive the engine until the
    gate opens, failing after 600 simulated seconds. *)

val leaked_sinks : t -> int
(** Sum of registered fragment sinks across all nodes — nonzero at
    quiescence means a server worker leaked one. *)

val stuck_callers : t -> int
(** Sum of outstanding caller registrations across all nodes — nonzero
    at quiescence means a caller thread never completed. *)
