module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let reset t = t.v <- 0
end

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if p < 0. || p > 1. then invalid_arg "Stats.percentile: p outside [0,1]";
  let rank = int_of_float (Float.ceil (float_of_int n *. p)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

module Level = struct
  (* [level] and [area] live in an all-float record, which OCaml stores
     flat: a [set] writes both floats in place.  As float fields of the
     mixed record [t] they would be boxed, and each [set] would allocate
     two floats and [caml_modify] them into this long-lived block. *)
  type floats = {
    mutable level : float;
    mutable area : float;  (* level-seconds accumulated up to [changed_at] *)
  }

  type t = { start_at : Time.t; mutable changed_at : Time.t; v : floats }

  let create ~initial ~at = { start_at = at; changed_at = at; v = { level = initial; area = 0. } }

  (* An out-of-order timestamp (earlier than the last change) must not
     rewind the integral: the segment already accumulated stands, and
     the change takes effect at [changed_at]. *)
  let[@inline] accumulate t ~upto =
    if Time.compare upto t.changed_at > 0 then begin
      let v = t.v in
      v.area <- v.area +. (v.level *. Time.to_sec (Time.diff upto t.changed_at));
      t.changed_at <- upto
    end

  (* Inlined, so a caller's computed level reaches the record unboxed. *)
  let[@inline] set t x ~at =
    accumulate t ~upto:at;
    t.v.level <- x

  let current t = t.v.level

  let integral t ~upto =
    let v = t.v in
    if Time.compare upto t.changed_at <= 0 then v.area
    else v.area +. (v.level *. Time.to_sec (Time.diff upto t.changed_at))

  let average t ~upto =
    let dur = Time.to_sec (Time.diff upto t.start_at) in
    if dur <= 0. then 0. else integral t ~upto /. dur
end
