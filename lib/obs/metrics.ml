module Histogram = struct
  (* Geometric buckets with ratio 2^(1/8): bucket [i] covers
     [2^(i/8), 2^((i+1)/8)), with everything below 1.0 folded into
     bucket 0.  256 buckets reach 2^32 — about 71 minutes when samples
     are microseconds. *)
  let n_buckets = 256
  let buckets_per_octave = 8.

  (* The running sum and extremes sit in an all-float record, stored
     flat, so an observation writes them in place instead of boxing a
     float into a long-lived block (see [Sim.Stats.Level]). *)
  type floats = { mutable total : float; mutable vmin : float; mutable vmax : float }

  type t = { counts : int array; mutable n : int; v : floats }

  let create () =
    {
      counts = Array.make n_buckets 0;
      n = 0;
      v = { total = 0.; vmin = infinity; vmax = neg_infinity };
    }

  let[@inline] bucket_of v =
    if v < 1. then 0
    else Stdlib.min (n_buckets - 1) (int_of_float (Float.floor (buckets_per_octave *. Float.log2 v)))

  (* Geometric midpoint of bucket [i]. *)
  let representative i = Float.pow 2. ((float_of_int i +. 0.5) /. buckets_per_octave)

  (* Inlined into [observe_span], so its float is never boxed. *)
  let[@inline] observe t v =
    let v = if v < 0. then 0. else v in
    let i = bucket_of v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    let f = t.v in
    f.total <- f.total +. v;
    if v < f.vmin then f.vmin <- v;
    if v > f.vmax then f.vmax <- v

  let observe_span t d = observe t (Sim.Time.to_us d)
  let count t = t.n
  let sum t = t.v.total

  let max_value t =
    if t.n = 0 then invalid_arg "Obs.Metrics.Histogram.max_value: empty";
    t.v.vmax

  let percentile t q =
    if t.n = 0 then invalid_arg "Obs.Metrics.Histogram.percentile: empty";
    if q < 0. || q > 1. then invalid_arg "Obs.Metrics.Histogram.percentile: q outside [0,1]";
    if q >= 1. then t.v.vmax
    else begin
      let target = q *. float_of_int t.n in
      let clamp v = Float.min t.v.vmax (Float.max t.v.vmin v) in
      let rec go i cum =
        if i >= n_buckets then t.v.vmax
        else begin
          let cum = cum + t.counts.(i) in
          if t.counts.(i) > 0 && float_of_int cum >= target then clamp (representative i)
          else go (i + 1) cum
        end
      in
      go 0 0
    end
end

type instrument =
  | I_counter_fn of (unit -> int)
  | I_level of Sim.Stats.Level.t
  | I_probe of (unit -> float)
  | I_hist of Histogram.t

module Registry = struct
  type t = { tbl : (string * string, instrument) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 64 }

  let kind_error ~site ~name =
    invalid_arg
      (Printf.sprintf "Obs.Metrics.Registry: %s/%s already bound to a different instrument kind"
         site name)

  let histogram t ~site ~name =
    match Hashtbl.find_opt t.tbl (site, name) with
    | Some (I_hist h) -> h
    | Some _ -> kind_error ~site ~name
    | None ->
      let h = Histogram.create () in
      Hashtbl.replace t.tbl (site, name) (I_hist h);
      h

  let register_counter_fn t ~site ~name f = Hashtbl.replace t.tbl (site, name) (I_counter_fn f)
  let register_level t ~site ~name l = Hashtbl.replace t.tbl (site, name) (I_level l)
  let register_probe t ~site ~name f = Hashtbl.replace t.tbl (site, name) (I_probe f)
end

module Snapshot = struct
  type value =
    | Count of int
    | Gauge of float
    | Level of { current : float; average : float; integral : float }
    | Dist of { count : int; sum : float; p50 : float; p90 : float; p99 : float; max_v : float }

  type row = { site : string; name : string; value : value }
  type t = { at : Sim.Time.t; rows : row list }

  let value_of_instrument ~at = function
    | I_counter_fn f -> Count (f ())
    | I_probe f -> Gauge (f ())
    | I_level l ->
      Level
        {
          current = Sim.Stats.Level.current l;
          average = Sim.Stats.Level.average l ~upto:at;
          integral = Sim.Stats.Level.integral l ~upto:at;
        }
    | I_hist h ->
      if Histogram.count h = 0 then
        Dist { count = 0; sum = 0.; p50 = 0.; p90 = 0.; p99 = 0.; max_v = 0. }
      else
        Dist
          {
            count = Histogram.count h;
            sum = Histogram.sum h;
            p50 = Histogram.percentile h 0.5;
            p90 = Histogram.percentile h 0.9;
            p99 = Histogram.percentile h 0.99;
            max_v = Histogram.max_value h;
          }

  let take (reg : Registry.t) ~at =
    let rows =
      Hashtbl.fold
        (fun (site, name) inst acc -> { site; name; value = value_of_instrument ~at inst } :: acc)
        reg.Registry.tbl []
      |> List.sort (fun a b ->
             match String.compare a.site b.site with
             | 0 -> String.compare a.name b.name
             | c -> c)
    in
    { at; rows }

  let find t ~site ~name =
    List.find_map
      (fun r -> if String.equal r.site site && String.equal r.name name then Some r.value else None)
      t.rows

  let fmt_f f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.3f" f

  let render_value = function
    | Count n -> (string_of_int n, "")
    | Gauge g -> (fmt_f g, "")
    | Level { current; average; integral } ->
      (fmt_f current, Printf.sprintf "avg=%s integral=%s" (fmt_f average) (fmt_f integral))
    | Dist { count; sum; p50; p90; p99; max_v } ->
      ( string_of_int count,
        Printf.sprintf "sum=%s p50=%s p90=%s p99=%s max=%s" (fmt_f sum) (fmt_f p50) (fmt_f p90)
          (fmt_f p99) (fmt_f max_v) )

  let kind_of = function
    | Count _ -> "counter"
    | Gauge _ -> "gauge"
    | Level _ -> "level"
    | Dist _ -> "histogram"

  let to_table ?(id = "metrics") ?(title = "Metrics snapshot") t =
    let rows =
      List.map
        (fun r ->
          let v, extra = render_value r.value in
          [ r.site; r.name; kind_of r.value; v; extra ])
        t.rows
    in
    Report.Table.make ~id ~title ~columns:[ "site"; "metric"; "kind"; "value"; "detail" ] rows
end
