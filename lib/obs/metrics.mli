(** Site-scoped metrics: a registry of named instruments and the
    snapshots that read it.

    The paper is an exercise in accounting — every table is "where did
    the microseconds (or the packets, or the CPUs) go".  The registry
    gives each model component one place to publish its numbers under a
    stable [(site, name)] key, where {e site} is the machine or entity
    ("caller", "server", "ether") and {e name} a dotted metric path
    ("deqna.tx_frames", "rpc.latency_us").  A report snapshots the
    registry after a run and renders or queries the rows.

    Four instrument shapes cover the codebase:
    - {b counters} — monotone event counts: read-closures over the
      [mutable int] fields their owners keep;
    - {b gauges} — instantaneous values sampled at snapshot time
      (queue depths, utilizations);
    - {b levels} — adopted {!Sim.Stats.Level}s, reported with their
      time-weighted average and integral;
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

  val histogram : t -> site:string -> name:string -> Histogram.t
  (** Get-or-create: repeated calls with the same key return the same
      histogram; a key already bound to another instrument kind raises
      [Invalid_argument]. *)

  (** {2 Adopted instruments}

      Model code keeps its own counts and levels; registration makes
      them visible to snapshots without changing how they are updated.
      Registering an existing key replaces the previous binding. *)

  val register_counter_fn : t -> site:string -> name:string -> (unit -> int) -> unit
  (** A counter read at snapshot time, typically [fun () -> t.count]
      over a field its owner increments. *)

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
  (** Levels are averaged and integrated up to [at]. *)

  val find : t -> site:string -> name:string -> value option

  val to_table : ?id:string -> ?title:string -> t -> Report.Table.t
  (** One row per metric: site, name, kind, value and a detail column
      (a level's average and integral, a histogram's sum and
      percentiles). *)
end
