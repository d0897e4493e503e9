(** Arrival-process generators for fleet load.

    Open-loop processes emit calls at generated instants regardless of
    completions (the regime where tails explode — the nanoPU paper's
    framing); the closed-loop process keeps a fixed number of calls in
    flight and paces each client with a think time (the paper's own
    Table I measurement loop is closed with zero think time).

    Every draw comes off a caller-supplied {!Sim.Rng.t}, so a generator
    stream is a pure function of its seed — the fleet determinism tier
    depends on it. *)

type arrival =
  | Poisson of { rate_per_sec : float }
      (** open loop, exponential inter-arrivals with mean [1/rate] *)
  | Pareto of { alpha : float; rate_per_sec : float }
      (** open loop, Pareto(alpha, xm) inter-arrivals scaled so the
          mean is [1/rate]; requires [alpha > 1] for the mean to
          exist *)
  | Closed of { think_us : float }
      (** closed loop: at most one outstanding call per client, the
          next issued [think_us] after the previous result *)

val pareto : Sim.Rng.t -> alpha:float -> xm:float -> float
(** One Pareto(alpha, xm) draw by inverse CDF: [xm * u^(-1/alpha)].
    @raise Invalid_argument unless [alpha > 0.] and [xm > 0.]. *)

val validate : arrival -> (arrival, string) result
(** Rejects a rate that is not positive, a Pareto [alpha] that is not
    above 1, a negative think time, and any non-finite value. *)

val interarrival_us : Sim.Rng.t -> arrival -> float
(** The next inter-arrival gap (or think gap, for [Closed]) in
    microseconds.
    @raise Invalid_argument on an arrival {!validate} rejects. *)

val is_open_loop : arrival -> bool

val to_string : arrival -> string
(** Deterministic rendering for report headers, e.g.
    ["poisson(2000.0/s)"]. *)
