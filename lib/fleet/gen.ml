type arrival =
  | Poisson of { rate_per_sec : float }
  | Pareto of { alpha : float; rate_per_sec : float }
  | Closed of { think_us : float }

let pareto rng ~alpha ~xm =
  if alpha <= 0. then invalid_arg "Gen.pareto: alpha must be positive";
  if xm <= 0. then invalid_arg "Gen.pareto: xm must be positive";
  (* Inverse-CDF sampling; keep u away from 0 so the tail stays finite. *)
  let u = 1.0 -. Sim.Rng.float rng 1.0 in
  xm *. (u ** (-1. /. alpha))

let validate arrival =
  match arrival with
  | (Poisson { rate_per_sec } | Pareto { rate_per_sec; _ })
    when not (Float.is_finite rate_per_sec && rate_per_sec > 0.) ->
    Error "rate must be finite and > 0"
  | Pareto { alpha; _ } when not (Float.is_finite alpha && alpha > 1.) ->
    Error "Pareto alpha must be finite and > 1, so the mean exists"
  | Closed { think_us } when not (Float.is_finite think_us && think_us >= 0.) ->
    Error "think time must be finite and >= 0"
  | a -> Ok a

let interarrival_us rng arrival =
  (match validate arrival with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Gen.interarrival_us: " ^ e));
  match arrival with
  | Poisson { rate_per_sec } -> Sim.Rng.exponential rng ~mean:(1e6 /. rate_per_sec)
  | Pareto { alpha; rate_per_sec } ->
    (* Pareto mean is xm * alpha/(alpha-1); pick xm so the mean matches
       the requested rate. *)
    let mean_us = 1e6 /. rate_per_sec in
    let xm = mean_us *. (alpha -. 1.) /. alpha in
    pareto rng ~alpha ~xm
  | Closed { think_us } -> think_us

let is_open_loop = function
  | Poisson _ | Pareto _ -> true
  | Closed _ -> false

let to_string = function
  | Poisson { rate_per_sec } -> Printf.sprintf "poisson(%.1f/s)" rate_per_sec
  | Pareto { alpha; rate_per_sec } -> Printf.sprintf "pareto(a=%.2f, %.1f/s)" alpha rate_per_sec
  | Closed { think_us } -> Printf.sprintf "closed(think=%.0fus)" think_us
