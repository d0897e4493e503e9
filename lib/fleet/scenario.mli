(** Fleet load scenarios and their tail-latency report.

    Three placements over an N-node {!Cluster}:
    - {e uniform}: every node serves and every node's clients call a
      seeded-random other node — the balanced datacenter baseline;
    - {e incast}: node 0 is the only server, every other node hosts
      clients — fan-in onto one machine's CPU 0, receive-buffer pool
      and switch egress port;
    - {e straggler}: uniform placement, but the last node's CPUs run at
      a configurable fraction of full speed — its service times stretch
      the fleet-wide p99/p99.9 while medians barely move.

    Clients are driven by the {!Gen} arrival processes (open-loop
    Poisson and Pareto, closed loop), every call's latency lands in the
    issuing node's and the fleet-wide {!Obs} histograms, and the report
    carries per-node and fleet p50/p99/p99.9, conservation counters
    (issued = completed + failed), switch statistics, and a saturation
    breakdown naming the first bottleneck.

    A run is a pure function of the spec: same spec (including seed) →
    byte-identical {!render} output. *)

type kind = Uniform | Incast | Straggler

type spec = {
  s_nodes : int;  (** machines in the cluster, >= 2 *)
  s_clients : int;  (** client slots fleet-wide, >= 1 *)
  s_calls : int;  (** total calls to issue, >= 1 *)
  s_arrival : Gen.arrival;
  s_kind : kind;
  s_seed : int;
  s_payload : int;  (** 0 = Null(); otherwise GetData(payload) results *)
  s_straggler_speedup : float;
      (** CPU speed of the straggler node relative to the rest
          (default 0.25); only used by [Straggler] *)
  s_switch_latency_us : float;
  s_egress_capacity : int;
}

val default : spec
(** 4 nodes, 16 clients, 400 calls, closed loop with zero think time,
    uniform placement, seed 42, Null(). *)

val validate : spec -> (spec, string) result
(** Rejects a spec {!run} cannot drive: fewer than 2 or more than
    {!Cluster.max_nodes} nodes, no clients, no calls, a payload outside
    [0 .. Workload.Test_interface.get_data_max], a straggler speedup
    that is not positive, a negative switch latency, an egress capacity
    below 1, any non-finite value, or an arrival {!Gen.validate}
    rejects. *)

type node_report = {
  nr_name : string;
  nr_role : string;  (** ["server"], ["clients"], ["server+clients"], ["straggler"] *)
  nr_issued : int;  (** calls issued from this node *)
  nr_served : int;  (** calls served by this node's runtime *)
  nr_p50_us : float;
  nr_p99_us : float;
  nr_p999_us : float;  (** 0 when the node issued no calls *)
  nr_busy_cpus : float;
  nr_cpu0_util : float;
  nr_interrupts : int;
  nr_rx_lost : int;  (** controller frames lost to buffer exhaustion *)
  nr_pool_exhaustions : int;
}

type bottleneck =
  | Cpu0_interrupts  (** CPU 0 interrupt serialization saturated first *)
  | Rx_buffer_pool
  | Switch_egress
  | Call_table  (** server worker pool / call table: Busy replies *)
  | Unsaturated

val bottleneck_to_string : bottleneck -> string

type report = {
  r_spec : spec;
  r_issued : int;
  r_completed : int;
  r_failed : int;
  r_max_in_flight : int;
  r_elapsed_us : float;
  r_rate_per_sec : float;
  r_fleet_p50_us : float;
  r_fleet_p99_us : float;
  r_fleet_p999_us : float;
  r_nodes : node_report list;
  r_retransmissions : int;
  r_busy_replies : int;
  r_switch_forwarded : int;
  r_incast_drops : int;
  r_unknown_drops : int;
  r_lookups : int;
  r_leaked_sinks : int;
  r_stuck_callers : int;
  r_events : int;  (** engine events executed *)
  r_bottleneck : bottleneck;
}

type artifacts = {
  a_obs : Obs.Ctx.t;
  a_spans : Sim.Trace.span list;  (** empty unless the run was traced *)
}

val run : ?trace:bool -> spec -> report * artifacts
(** Builds the cluster, drives the workload to completion and collects
    the report.  @raise Invalid_argument on a spec {!validate}
    rejects. *)

val render : report -> string
(** The deterministic fleet report: spec echo, conservation and switch
    lines, the per-node table, fleet-wide tails and the saturation
    breakdown. *)

val check : report -> (unit, string list) result
(** The smoke invariants: calls issued = spec calls =
    completed + failed; no leaked fragment sinks; no stuck callers; a
    closed-loop run never exceeded its concurrency bound. *)
