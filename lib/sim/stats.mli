(** Lightweight measurement helpers: exact percentiles and
    time-weighted levels. *)

val percentile : 'a array -> float -> 'a
(** [percentile sorted p] is the nearest-rank [p]-quantile of the
    ascending array [sorted]: the smallest sample whose cumulative count
    reaches [p * n], i.e. rank [ceil (n * p)] clamped to [1, n].
    @raise Invalid_argument when [sorted] is empty or [p] lies outside
    [0, 1]. *)

(** Time-weighted average of a step function, e.g. "number of busy CPUs
    over time".  Drives the paper's CPU-utilization figures. *)
module Level : sig
  type t

  val create : initial:float -> at:Time.t -> t

  val set : t -> float -> at:Time.t -> unit
  (** Timestamps are expected to be monotone.  A [set] whose [at] lies
      before the latest recorded change does not rewind the integral:
      the already-accumulated area stands and the new value takes effect
      from the time of the latest change. *)

  val current : t -> float

  val integral : t -> upto:Time.t -> float
  (** [integral t ~upto] is the integral of the level over time, in
      level-seconds, including the segment from the last change to
      [upto].  An [upto] at or before the last change returns the area
      accumulated so far (never less). *)

  val average : t -> upto:Time.t -> float
  (** Integral divided by total observed duration; 0. if no time has
      elapsed. *)
end
