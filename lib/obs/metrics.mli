(** Site-scoped metrics: a registry of named instruments with a
    snapshot/diff API.

    The paper is an exercise in accounting — every table is "where did
    the microseconds (or the packets, or the CPUs) go".  The registry
    gives each model component one place to publish its numbers under a
    stable [(site, name)] key, where {e site} is the machine or entity
    ("caller", "server", "ether") and {e name} a dotted metric path
    ("deqna.tx_frames", "rpc.latency_us").  Experiments snapshot the
    registry before and after a run and render the difference.

    Four instrument shapes cover the codebase:
    - {b counters} — monotone event counts; either owned
      {!Sim.Stats.Counter}s or adopted read-closures over counters that
      model code already maintains;
    - {b gauges} — instantaneous values sampled at snapshot time
      (queue depths, utilizations), again owned or adopted;
    - {b levels} — adopted {!Sim.Stats.Level}s, reported with their
      time-weighted average and integral so a snapshot diff can compute
      the average over exactly the diffed window;
    - {b histograms} — log-bucketed latency distributions with
      p50/p90/p99/max queries (buckets grow by [2^(1/8)] ≈ 9 %, which
      bounds the relative quantile error to one bucket). *)

module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record one (non-negative) sample.  Negative samples are clamped
      to 0. *)

  val observe_span : t -> Sim.Time.span -> unit
  (** Records the duration in {b microseconds} — the natural unit for
      RPC phases in this model. *)

  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile t q] with [q] in [\[0, 1\]]: nearest-rank quantile,
      answered from the bucket midpoint and clamped to the observed
      [\[min, max\]] (so [percentile t 1.] is the exact maximum).
      Raises [Invalid_argument] if empty or [q] is out of range. *)

  val max_value : t -> float
  (** Exact maximum observed; raises [Invalid_argument] if empty. *)
end

module Registry : sig
  type t

  val create : unit -> t

  (** {2 Owned instruments (get-or-create)}

      Repeated calls with the same key return the same instrument; a
      key already bound to a different instrument kind raises
      [Invalid_argument]. *)

  val counter : t -> site:string -> name:string -> Sim.Stats.Counter.t
  val histogram : t -> site:string -> name:string -> Histogram.t

  (** {2 Adopted instruments}

      Model code keeps its own counters and levels; registration makes
      them visible to snapshots without changing how they are updated.
      Registering an existing key replaces the previous binding. *)

  val register_counter : t -> site:string -> name:string -> Sim.Stats.Counter.t -> unit
  val register_counter_fn : t -> site:string -> name:string -> (unit -> int) -> unit
  val register_level : t -> site:string -> name:string -> Sim.Stats.Level.t -> unit

  val register_probe : t -> site:string -> name:string -> (unit -> float) -> unit
  (** A gauge sampled at snapshot time. *)
end

module Snapshot : sig
  type value =
    | Count of int
    | Gauge of float
    | Level of { current : float; average : float; integral : float }
    | Dist of { count : int; sum : float; p50 : float; p90 : float; p99 : float; max_v : float }

  type row = { site : string; name : string; value : value }

  type t = { at : Sim.Time.t; rows : row list }
  (** Rows are sorted by [(site, name)], so renderings of the same
      registry state are byte-identical. *)

  val take : Registry.t -> at:Sim.Time.t -> t

  val diff : t -> t -> t
  (** [diff later earlier]: counters and histogram counts/sums
      subtract; a level's [average]/[integral] cover exactly the
      window between the two snapshots; gauges and histogram
      percentiles report the later snapshot's value.  Rows absent from
      [earlier] pass through unchanged. *)

  val find : t -> site:string -> name:string -> value option

  val to_table : ?id:string -> ?title:string -> t -> Report.Table.t
  val to_csv : t -> string
  (** Header ["site,name,kind,value,extra"] then one row per metric. *)
end
