(** One simulated Firefly: processors, QBus, DEQNA, driver, packet-buffer
    pool, background load, and a network identity.

    A machine is created attached to an {!Hw.Ether_link.t}; RPC runtimes
    (library [rpc]) plug into its {!driver} for the interrupt-time fast
    path and build threads with {!spawn_thread}. *)

type t

val create :
  ?obs:Obs.Ctx.t ->
  Sim.Engine.t ->
  name:string ->
  config:Hw.Config.t ->
  link:Hw.Ether_link.t ->
  station:int ->
  ip:Net.Ipv4.Addr.t ->
  ?pool_buffers:int ->
  unit ->
  t
(** [pool_buffers] defaults to 64.  The driver takes 16 of them as
    controller receive credits.  [obs] is the observability context
    every part of the machine (CPUs, controller, driver, waiters, pool)
    publishes into; a world or cluster passes one it shares.  Tests and
    examples build bare machines without it, and each then gets a
    private context (reachable via {!obs}).
    @raise Invalid_argument if the configuration fails validation. *)

val name : t -> string
val engine : t -> Sim.Engine.t
val config : t -> Hw.Config.t
val timing : t -> Hw.Timing.t
val cpus : t -> Hw.Cpu_set.t
val driver : t -> Driver.t
val pool : t -> Bufpool.t
val mac : t -> Net.Mac.t
val ip : t -> Net.Ipv4.Addr.t
val link : t -> Hw.Ether_link.t

val obs : t -> Obs.Ctx.t
(** The machine's observability context: its metrics registry and event
    journal.  Shared with other machines when the creator passed one. *)

val new_waiter : t -> 'a Waiter.t

val spawn_thread : t -> ?name:string -> (unit -> unit) -> unit
(** Starts a thread on this machine.  The body is responsible for
    acquiring CPUs via {!Hw.Cpu_set.with_cpu} around its bursts. *)

val power_off : t -> unit
(** Detaches the machine from the Ethernet — frames to it vanish.  Used
    by the server-crash tests. *)

val power_on : t -> unit
(** Reattaches after {!power_off}. *)

val restart : t -> down_for:Sim.Time.span -> unit
(** {!power_off} now, {!power_on} after [down_for] of virtual time —
    the machine-restart event of the fault-plan DSL (library [check]).
    @raise Invalid_argument if [down_for] is negative. *)

(** {1 Measurement} *)

val average_busy_cpus : t -> upto:Sim.Time.t -> float

val start_idle_load : t -> unit
(** Starts the background threads that draw 0.15 processors on average,
    as the paper's idle machines did (§2.1).  Idempotent. *)
