(* The host-cost benchmark of the reproduction.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload closed loop on one domain for S seconds of host
   time and prints, as the last line of standard output, one JSON
   object {correct, attempted, failed, metrics}.  With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1
   they are the per-layer ledger: an untraced window, a traced window,
   and arms that replay the engine's and the wire kernels' share of the
   workload in isolation.  Lines before the last carry the raw values,
   the reference-loop time and a digest of the simulated outputs.

   All host times are wall clock.  Metrics named [vt.*] and
   [fleet.sim_p99_us] are simulated time. *)

open Common

let workloads =
  [
    ("pair-bulk", Pair_bulk.create);
    ("fleet-incast", Fleet_incast.create);
    ("socket-loopback", Socket_loopback.create);
  ]

(* Set-up repetitions per run; set-up time is their median. *)
let setup_reps = 11

(* Samples at the start of a window whose outputs are hashed into the
   run's digest, and samples of the traced window whose counters and
   spans feed the per-layer ledger: fixed counts, so both are a pure
   function of the seed. *)
let digest_samples = 3
let layer_samples = 3

(* The tail percentile of the end-to-end latency: the highest one that
   stayed steady from run to run on a shared host (p95 and p99 of the
   socket round trip moved by up to 14% between runs). *)
let tail = 0.9

(* The reference loop runs between samples, at most this often. *)
let ref_interval_s = 0.05

(* {1 Windows} *)

type span_stats = {
  mutable spans : int;
  mutable unattributed : int;
  mutable depth : int;
  vt : (string, float) Hashtbl.t;  (** simulated us per category *)
}

type window = {
  mutable samples : int;
  mutable calls : int;
  mutable failed : int;
  mutable wall : float;  (** host seconds inside samples *)
  mutable events : int;
  mutable alloc : float;
  mutable minor : int;
  lat : Fbuf.t array;  (** per-call host us, per procedure class *)
  rates : Fbuf.t;  (** calls per host second, per sample *)
  nrates : Fbuf.t;  (** the same, each times the latest reference-loop ms *)
  nlat : Fbuf.t array;  (** per-call host us over the latest reference-loop ms *)
  mutable refs : float list;  (** reference-loop ms *)
  mutable digests : string list;
  layer_counts : (string, float) Hashtbl.t;
  mutable layer_calls : int;
  mutable layer_events : int;
  st : span_stats;
}

let new_window classes =
  {
    samples = 0;
    calls = 0;
    failed = 0;
    wall = 0.;
    events = 0;
    alloc = 0.;
    minor = 0;
    lat = Array.map (fun _ -> Fbuf.create ()) classes;
    rates = Fbuf.create ();
    nrates = Fbuf.create ();
    nlat = Array.map (fun _ -> Fbuf.create ()) classes;
    refs = [];
    digests = [];
    layer_counts = Hashtbl.create 32;
    layer_calls = 0;
    layer_events = 0;
    st = { spans = 0; unattributed = 0; depth = 0; vt = Hashtbl.create 8 };
  }

let vt_key cat =
  match cat with
  | "runtime" | "queue" | "background" -> cat
  | "send+receive" -> "send_receive"
  | _ -> "other"

(* Peak number of simultaneously open service spans — CPU charges,
   controller and wire occupancy, each a pending event — as the
   in-flight depth of the simulation that the engine arm replays.
   Queueing spans are waits, not events, and are left out. *)
let peak_depth spans =
  let edges =
    Array.of_list
      (List.concat_map
         (fun (s : Sim.Trace.span) ->
           if s.kind = Sim.Trace.Queue then []
           else
             [
               (Sim.Time.since_start_ns s.start_at, 1); (Sim.Time.since_start_ns s.stop_at, -1);
             ])
         spans)
  in
  Array.sort compare edges;
  let cur = ref 0 and peak = ref 0 in
  Array.iter
    (fun (_, d) ->
      cur := !cur + d;
      if !cur > !peak then peak := !cur)
    edges;
  !peak

let add_spans st spans =
  List.iter
    (fun (s : Sim.Trace.span) ->
      st.spans <- st.spans + 1;
      if s.call = Sim.Trace.no_call && s.cat <> "background" then
        st.unattributed <- st.unattributed + 1;
      let k = vt_key s.cat in
      let d = Sim.Time.to_us (Sim.Trace.duration s) in
      Hashtbl.replace st.vt k (d +. Option.value ~default:0. (Hashtbl.find_opt st.vt k)))
    spans;
  st.depth <- max st.depth (peak_depth spans)

let run_window (wl : Harness.workload) ~seconds ~traced =
  let w = new_window wl.Harness.classes in
  let last_ref = ref neg_infinity in
  let reference () =
    w.refs <- Refloop.time_ms () :: w.refs;
    last_ref := now ()
  in
  reference ();
  let deadline = now () +. seconds in
  while w.samples < max digest_samples layer_samples || now () < deadline do
    if now () -. !last_ref >= ref_interval_s then reference ();
    let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.minor_collections in
    let s = wl.Harness.sample ~traced w.samples in
    w.alloc <- w.alloc +. (Gc.allocated_bytes () -. a0);
    w.minor <- w.minor + ((Gc.quick_stat ()).Gc.minor_collections - m0);
    Heap_peak.poll ();
    if w.samples < digest_samples then w.digests <- s.s_digest :: w.digests;
    if w.samples < layer_samples then begin
      List.iter
        (fun (k, v) ->
          Hashtbl.replace w.layer_counts k (v +. Option.value ~default:0. (Hashtbl.find_opt w.layer_counts k)))
        s.s_counts;
      w.layer_calls <- w.layer_calls + s.s_calls;
      w.layer_events <- w.layer_events + s.s_events;
      add_spans w.st (Lazy.force s.s_spans)
    end;
    w.samples <- w.samples + 1;
    w.calls <- w.calls + s.s_calls;
    w.failed <- w.failed + s.s_failed;
    w.wall <- w.wall +. s.s_wall;
    Fbuf.push w.rates (float_of_int s.s_calls /. s.s_wall);
    let r = List.hd w.refs in
    Fbuf.push w.nrates (float_of_int s.s_calls /. s.s_wall *. r);
    List.iter (fun (cls, us) -> Fbuf.push w.nlat.(cls) (us /. r)) s.s_lat_us;
    w.events <- w.events + s.s_events;
    List.iter (fun (cls, us) -> Fbuf.push w.lat.(cls) us) s.s_lat_us
  done;
  reference ();
  w

let digest w = Digest.to_hex (Digest.string (String.concat "\n" (List.rev w.digests)))
let ref_ms w = median w.refs

let pct_list xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a p

let calls_per_s w = float_of_int w.calls /. w.wall

(* Throughput as the median over samples: a neighbour's burst on a
   shared host stalls a few samples, and the median stays put. *)
let median_rate w = percentile (Fbuf.sorted w.rates) 0.5

(* Percentile [p] of each procedure class's latencies. *)
let class_pcts bufs p = Array.map (fun b -> percentile (Fbuf.sorted b) p) bufs

(* Averaged over the workload's classes: the socket mix is bimodal, so
   its median would jump between the two procedures' modes; the mean of
   per-procedure percentiles does not. *)
let mean_pct bufs p =
  let xs = class_pcts bufs p in
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Normalization: each sample's rate, and each call's latency, is
   scaled by the reference-loop time measured just before it, so it
   reads as it would on a host where the loop takes
   [Refloop.nominal_ms].  Scaling sample by sample follows the host's
   speed as it drifts within a run, not only between runs. *)
let norm_rate w = percentile (Fbuf.sorted w.nrates) 0.5 /. Refloop.nominal_ms
let norm_pct w p = Refloop.nominal_ms *. mean_pct w.nlat p
let norm_class_pcts w p = Array.map (( *. ) Refloop.nominal_ms) (class_pcts w.nlat p)

(* {1 Output} *)

let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
       metrics)

let print_result ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (json_metrics metrics)

let print_detail fields =
  Printf.printf "{%s}\n%!"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

let str s = Printf.sprintf "%S" s
let arr xs = "[" ^ String.concat ", " (List.map num xs) ^ "]"

(* {1 End-to-end run (--trace 0)} *)

(* One set-up, timed raw and normalized by a reference-loop run just
   before it, like the samples. *)
let timed_setup (wl : Harness.workload) =
  wl.Harness.teardown ();
  let r = Refloop.time_ms () in
  let t0 = now () in
  wl.Harness.setup ();
  let dt = now () -. t0 in
  (dt, dt *. Refloop.nominal_ms /. r)

let end_to_end name (wl : Harness.workload) ~seed ~seconds =
  let setups = List.init setup_reps (fun _ -> timed_setup wl) in
  Heap_peak.reset ();
  let w = run_window wl ~seconds ~traced:false in
  let heap_mb = Heap_peak.mb () in
  wl.Harness.teardown ();
  let raw_p50 = mean_pct w.lat 0.5 and raw_p90 = mean_pct w.lat tail in
  print_detail
    [
      ("workload", str name);
      ("seed", string_of_int seed);
      ("digest", str (digest w));
      ("samples", string_of_int w.samples);
      ("calls", string_of_int w.calls);
      ("failed_frac", num (float_of_int w.failed /. float_of_int w.calls));
      ("host.ref_ms", num (ref_ms w));
      ("host.ref_runs", string_of_int (List.length w.refs));
      ("call_ref_us.p90_p95_p99", arr (List.map (norm_pct w) [ 0.9; 0.95; 0.99 ]));
      ("host.ref_ms_p10_p90", arr [ pct_list w.refs 0.1; pct_list w.refs 0.9 ]);
      ("raw.calls_per_s", num (median_rate w));
      ("raw.calls_per_s_mean", num (calls_per_s w));
      ("raw.call_us.p50", num raw_p50);
      ("raw.call_us.p90", num raw_p90);
      ("latency_samples_per_class", string_of_int (Fbuf.length w.lat.(0)));
      ("classes", "[" ^ String.concat ", " (Array.to_list (Array.map str wl.Harness.classes)) ^ "]");
      ("raw.call_us.p50_per_class", arr (Array.to_list (class_pcts w.lat 0.5)));
      ("raw.call_us.p90_per_class", arr (Array.to_list (class_pcts w.lat tail)));
      ("raw.setup_runs_s", arr (List.map fst setups));
    ];
  print_result ~attempted:w.calls ~failed:w.failed
    [
      ("setup_s", "s", median (List.map snd setups));
      ("calls_per_ref_s", "calls/ref_s", norm_rate w);
      ("call_ref_us.p50", "ref_us", norm_pct w 0.5);
      ("call_ref_us.p90", "ref_us", norm_pct w tail);
      ("peak_heap_mb", "MB", heap_mb);
    ]

(* {1 Per-layer run (--trace 1)} *)

let per_layer name (wl : Harness.workload) ~seed ~seconds =
  wl.Harness.setup ();
  let half = seconds /. 2. in
  let u = run_window wl ~seconds:half ~traced:false in
  let t = run_window wl ~seconds:half ~traced:true in
  let kin = wl.Harness.kernel_input () in
  wl.Harness.teardown ();
  let k = Arms.kernels kin in
  let fcalls = float_of_int u.calls in
  let per_call w x = x /. float_of_int w.calls in
  let host_ns = u.wall *. 1e9 /. fcalls in
  let lcalls = float_of_int t.layer_calls in
  let c key = Option.value ~default:0. (Hashtbl.find_opt t.layer_counts key) in
  let per_lcall key = c key /. lcalls in
  let per_kcall key = 1000. *. per_lcall key in
  let simulated = u.events > 0 in
  let events_per_call = float_of_int t.layer_events /. lcalls in
  let depth = t.st.depth in
  let heap_ns, alloc_per_event, cal_ns =
    if simulated then begin
      let events = t.layer_events / layer_samples in
      let heap_ns, ape = Arms.engine ~queue:`Heap ~depth ~events in
      let cal_ns, _ = Arms.engine ~queue:`Calendar ~depth ~events in
      (heap_ns, ape, cal_ns)
    end
    else (0., 0., 0.)
  in
  (* The ledger: engine arm (the workloads run the default pairing-heap
     queue) + kernel arm + residual = measured host ns per call. *)
  let sim_ns = heap_ns *. events_per_call in
  let kernel_ns = Arms.kernel_ns_per_call k in
  let model_ns = if simulated then host_ns -. sim_ns -. kernel_ns else 0. in
  let realnet_ns = if simulated then 0. else host_ns -. kernel_ns in
  (* Frames per call: the simulated workloads count them in the model;
     the socket workload's are the captured frames of one call per
     class. *)
  let frames_per_call, wire_per_call =
    if simulated then (per_lcall "frames", per_lcall "wire_bytes")
    else
      let n = float_of_int kin.Arms.frame_calls in
      ( float_of_int (List.length kin.Arms.frames) /. n,
        float_of_int (List.fold_left (fun a f -> a + Bytes.length f) 0 kin.Arms.frames) /. n )
  in
  let retrans = per_lcall "retransmissions" in
  let useful = if frames_per_call > 0. then (frames_per_call -. retrans) /. frames_per_call else 1. in
  let vt cat = Option.value ~default:0. (Hashtbl.find_opt t.st.vt cat) /. lcalls in
  let evictions = c "trace.frame_evictions" and dropped = c "trace.dropped" in
  let unattributed =
    if t.st.spans = 0 then 0. else float_of_int t.st.unattributed /. float_of_int t.st.spans
  in
  let partial = evictions > 0. || dropped > 0. || c "journal.dropped" > 0. || unattributed > 0. in
  let socket_pct cls p = if simulated then 0. else (norm_class_pcts u p).(cls) in
  print_detail
    [
      ("workload", str name);
      ("seed", string_of_int seed);
      ("digest", str (digest u));
      ("untraced_samples", string_of_int u.samples);
      ("traced_samples", string_of_int t.samples);
      ("layer_calls", string_of_int t.layer_calls);
      ("engine_arm_events", string_of_int (t.layer_events / layer_samples));
      ("ledger.host_ns_per_call", num host_ns);
      ("ledger.sim_ns_per_call", num sim_ns);
      ("ledger.kernels_ns_per_call", num kernel_ns);
      ("ledger.model_ns_per_call", num model_ns);
      ("ledger.realnet_ns_per_call", num realnet_ns);
      ("trace.attribution", str (if partial then "partial" else "complete"));
      ("trace.journal_dropped", num (c "journal.dropped"));
    ];
  let attempted = u.calls + t.calls and failed = u.failed + t.failed in
  print_result ~attempted ~failed
    [
      ("host.ref_ms", "ms", ref_ms u);
      ("host.calls_per_s", "calls/s", calls_per_s u);
      ("host.ns_per_call", "ns/call", host_ns);
      ("failed_frac", "frac", float_of_int failed /. float_of_int attempted);
      ("sim.events_per_call", "count", events_per_call);
      ("sim.events_per_s", "events/s", float_of_int u.events /. u.wall);
      ("sim.depth", "count", float_of_int depth);
      ("sim.ns_per_event.heap", "ns/event", heap_ns);
      ("sim.ns_per_event.calendar", "ns/event", cal_ns);
      ("sim.alloc_bytes_per_event", "B/event", alloc_per_event);
      ("sim.ns_per_call", "ns/call", sim_ns);
      ("kernels.checksum_ns_per_call", "ns/call", k.Arms.checksum_ns);
      ("kernels.frame_build_ns_per_call", "ns/call", k.Arms.build_ns);
      ("kernels.frame_parse_ns_per_call", "ns/call", k.Arms.parse_ns);
      ("kernels.marshal_ns_per_call", "ns/call", k.Arms.marshal_ns);
      ("kernels.alloc_bytes_per_call", "B/call", k.Arms.alloc_bytes);
      ("kernels.ns_per_call", "ns/call", kernel_ns);
      ("model.ns_per_call", "ns/call", model_ns);
      ("hw.frames_per_call", "count", frames_per_call);
      ("hw.wire_bytes_per_call", "B/call", wire_per_call);
      ("nub.interrupts_per_call", "count", per_lcall "interrupts");
      ("nub.wakeups_per_call", "count", per_lcall "wakeups");
      ("nub.pool_exhaustions", "1/kcall", per_kcall "pool_exhaustions");
      ("hw.rx_no_buffer", "1/kcall", per_kcall "rx_no_buffer");
      ("hw.server_cpu0_util", "sim_frac", per_lcall "server_cpu0_util_x_calls");
      ("rpc.retransmissions_per_call", "count", retrans);
      ("rpc.duplicates_per_call", "count", per_lcall "duplicates");
      ("rpc.busy_rejects", "1/kcall", per_kcall "busy_rejects");
      ("rpc.useful_frame_frac", "frac", useful);
      ("fleet.switch_forwarded_per_call", "count", per_lcall "switch_forwarded");
      ("fleet.incast_drops", "1/kcall", per_kcall "incast_drops");
      ("fleet.max_in_flight", "count", c "max_in_flight" /. float_of_int layer_samples);
      ("fleet.sim_p99_us", "sim_us", c "sim_p99_us_x_samples" /. float_of_int layer_samples);
      ("realnet.residual_ns_per_call", "ns/call", realnet_ns);
      ("realnet.server_rejected", "count", c "server_rejected");
      ("rtt_ref_us.null.p50", "ref_us", socket_pct 0 0.5);
      ("rtt_ref_us.null.p99", "ref_us", socket_pct 0 0.99);
      ("rtt_ref_us.maxarg.p50", "ref_us", socket_pct 1 0.5);
      ("rtt_ref_us.maxarg.p99", "ref_us", socket_pct 1 0.99);
      ("alloc_bytes_per_call", "B/call", per_call u u.alloc);
      ("gc.minor_per_kcall", "1/kcall", 1000. *. per_call u (float_of_int u.minor));
      ("trace.overhead_frac", "frac", if simulated then (norm_rate u /. norm_rate t) -. 1. else 0.);
      ("trace.spans_per_call", "count", float_of_int t.st.spans /. lcalls);
      ( "trace.alloc_bytes_per_call",
        "B/call",
        if simulated then per_call t t.alloc -. per_call u u.alloc else 0. );
      ("trace.frame_evictions", "count", evictions);
      ("trace.dropped", "count", dropped);
      ("trace.unattributed_frac", "frac", unattributed);
      ("trace.attribution_partial", "flag", if partial then 1. else 0.);
      ("vt.runtime_us_per_call", "sim_us/call", vt "runtime");
      ("vt.send_receive_us_per_call", "sim_us/call", vt "send_receive");
      ("vt.queue_us_per_call", "sim_us/call", vt "queue");
      ("vt.background_us_per_call", "sim_us/call", vt "background");
      ("vt.other_us_per_call", "sim_us/call", vt "other");
    ]

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME pair-bulk | fleet-incast | socket-loopback");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs derive from");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some create ->
    let wl = create ~seed:!seed in
    Fun.protect ~finally:wl.Harness.teardown (fun () ->
        if !trace = 0 then end_to_end !workload wl ~seed:!seed ~seconds:!seconds
        else per_layer !workload wl ~seed:!seed ~seconds:!seconds)
