(** The measurement driver: the multithreaded caller of §2.1.

    [k] caller threads in one user address space share a fixed budget of
    calls to one Test procedure on the remote server; the run reports
    elapsed virtual time, call rate, payload throughput and the CPU draw
    of both machines — the quantities of Tables I, X and XI.
    {!run_traced} is the one traced-call runner, behind Tables VI–VIII
    and [firefly breakdown]; {!measure_single_call} times one untraced
    call. *)

type proc = Null | Max_result | Max_arg | Get_data of int

type outcome = {
  threads : int;
  calls : int;
  elapsed : Sim.Time.span;
  rpcs_per_sec : float;
  megabits_per_sec : float;  (** payload bits transferred per second *)
  caller_busy_cpus : float;  (** time-averaged busy CPUs, caller machine *)
  server_busy_cpus : float;
  retransmissions : int;
  mean_latency : Sim.Time.span;  (** elapsed × threads / calls *)
  latencies : Sim.Time.span array;  (** per-call, in completion order *)
  sorted_latencies : Sim.Time.span array;
      (** [latencies] sorted ascending — what {!percentile} reads *)
}

val percentile : outcome -> float -> Sim.Time.span
(** [percentile o 0.99] — nearest-rank percentile of the per-call
    latencies.  @raise Invalid_argument on an empty outcome or p
    outside [0, 1]. *)

val payload_bytes : proc -> int

val proc_idx : proc -> int
(** The Test interface's procedure index for [proc]. *)

val args_of : proc -> Rpc.Marshal.value list
(** The call's arguments: MaxArg sends the 1440-byte pattern, GetData
    asks for its length. *)

val result_ok : proc -> Rpc.Marshal.value list -> bool
(** Whether [proc]'s results have the right shape and size; a GetData
    result must also carry the exact pattern. *)

val run :
  World.t ->
  ?options:Rpc.Runtime.call_options ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  threads:int ->
  calls:int ->
  proc:proc ->
  unit ->
  outcome
(** Runs the workload to completion on the world's engine (which must
    not have been run to a later time already).
    @raise Failure if a call returns a result {!result_ok} rejects. *)

val run_traced :
  World.t ->
  ?threads:int ->
  calls:int ->
  proc:proc ->
  unit ->
  Obs.Attrib.window list
(** The one traced-call runner.  One caller thread makes two untimed
    calls, then clears the engine's span trace and the world's event
    journal and enables tracing; [threads] (default 1) caller threads
    then share the [calls] timed calls, so the trace and journal cover
    exactly those calls.  Returns each timed call's
    measured window, in call-id order: the i-th call to start is trace
    call id i, ready for [Obs.Attrib.attribute].  Read the spans from
    [Sim.Engine.trace] and the journal from the world's {!Obs.Ctx.t}
    afterwards.  Drives [firefly breakdown] and Tables VI–VIII.
    @raise Invalid_argument when [threads < 1]. *)

val measure_single_call :
  World.t ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  proc:proc ->
  unit ->
  Sim.Time.span
(** One warmed-up call's latency: makes a few calls to populate the
    fast path, then times one.  [transport] is passed to
    {!World.test_binding}. *)
