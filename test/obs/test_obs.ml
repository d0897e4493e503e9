(* Tests for the observability layer: JSON, histograms, the metrics
   registry and snapshots, the event journal, span lanes and latency
   attribution, and the end-to-end Chrome-trace export of a real
   two-Firefly run. *)

module Json = Obs.Json
module Metrics = Obs.Metrics
module Journal = Obs.Journal
module Time = Sim.Time

let at n = Time.of_ns_since_start n

(* {1 Json} *)

let test_json_emit () =
  let j =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("i", Json.Num 42.);
        ("f", Json.Num 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("a", Json.Arr [ Json.Num 0.; Json.Num (-3.) ]);
      ]
  in
  Alcotest.(check string)
    "compact deterministic rendering"
    {|{"s":"a\"b\\c\nd","i":42,"f":1.5,"b":true,"n":null,"a":[0,-3]}|} (Json.to_string j)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("nested", Json.Arr [ Json.Obj [ ("x", Json.Num 1e-3) ]; Json.Str "tab\there" ]);
        ("neg", Json.Num (-2.25));
        ("flags", Json.Arr [ Json.Bool false; Json.Null ]);
      ]
  in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' -> Alcotest.(check string) "round-trips" (Json.to_string j) (Json.to_string j')

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed input %S" s
    | Error _ -> ()
  in
  List.iter bad [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

(* {1 Histogram} *)

let test_histogram_percentiles () =
  let h = Metrics.Histogram.create () in
  Alcotest.check_raises "empty percentile raises"
    (Invalid_argument "Obs.Metrics.Histogram.percentile: empty") (fun () ->
      ignore (Metrics.Histogram.percentile h 0.5));
  for i = 1 to 1000 do
    Metrics.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.Histogram.count h);
  let within q expected =
    let v = Metrics.Histogram.percentile h q in
    let rel = abs_float (v -. expected) /. expected in
    if rel > 0.1 then Alcotest.failf "p%.0f = %.1f, expected ~%.1f" (q *. 100.) v expected
  in
  (* Log buckets grow by ~9%, so quantiles are within one bucket. *)
  within 0.5 500.;
  within 0.9 900.;
  within 0.99 990.;
  Alcotest.(check (float 0.)) "p100 is the exact max" 1000. (Metrics.Histogram.percentile h 1.);
  Alcotest.(check (float 0.)) "max_value" 1000. (Metrics.Histogram.max_value h);
  Metrics.Histogram.observe h (-5.);
  Alcotest.(check int) "negative samples clamp to zero, still counted" 1001
    (Metrics.Histogram.count h)

(* {1 Registry and snapshots} *)

let test_registry_snapshot () =
  let reg = Metrics.Registry.create () in
  let c = Sim.Stats.Counter.create () in
  Metrics.Registry.register_counter reg ~site:"caller" ~name:"rpc.calls" c;
  let h = Metrics.Registry.histogram reg ~site:"caller" ~name:"rpc.latency_us" in
  let g = ref 7. in
  Metrics.Registry.register_probe reg ~site:"server" ~name:"queue.depth" (fun () -> !g);
  Sim.Stats.Counter.add c 10;
  Metrics.Histogram.observe h 100.;
  let s0 = Metrics.Snapshot.take reg ~at:(at 0) in
  Sim.Stats.Counter.add c 5;
  Metrics.Histogram.observe h 200.;
  g := 9.;
  let s1 = Metrics.Snapshot.take reg ~at:(at 1_000_000) in
  (* A snapshot keeps the values it read: s0 is unchanged by what
     happened after it. *)
  List.iter
    (fun (snap, calls, dist_count, dist_sum, depth) ->
      (match Metrics.Snapshot.find snap ~site:"caller" ~name:"rpc.calls" with
      | Some (Metrics.Snapshot.Count n) -> Alcotest.(check int) "counter" calls n
      | _ -> Alcotest.fail "counter row missing");
      (match Metrics.Snapshot.find snap ~site:"caller" ~name:"rpc.latency_us" with
      | Some (Metrics.Snapshot.Dist { count; sum; _ }) ->
        Alcotest.(check int) "dist count" dist_count count;
        Alcotest.(check (float 1e-9)) "dist sum" dist_sum sum
      | _ -> Alcotest.fail "histogram row missing");
      match Metrics.Snapshot.find snap ~site:"server" ~name:"queue.depth" with
      | Some (Metrics.Snapshot.Gauge v) -> Alcotest.(check (float 0.)) "gauge" depth v
      | _ -> Alcotest.fail "gauge row missing")
    [ (s0, 10, 1, 100., 7.); (s1, 15, 2, 300., 9.) ];
  Alcotest.(check bool) "get-or-create returns the same histogram" true
    (h == Metrics.Registry.histogram reg ~site:"caller" ~name:"rpc.latency_us");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Obs.Metrics.Registry: caller/rpc.calls already bound to a different instrument kind") (fun () ->
      ignore (Metrics.Registry.histogram reg ~site:"caller" ~name:"rpc.calls"))

let test_snapshot_rendering_deterministic () =
  (* Registration order differs between the two registries; rows must
     not. *)
  let snapshot names =
    let reg = Metrics.Registry.create () in
    List.iter
      (fun name ->
        let c = Sim.Stats.Counter.create () in
        Sim.Stats.Counter.add c 3;
        Metrics.Registry.register_counter reg ~site:"m" ~name c)
      names;
    Metrics.Snapshot.take reg ~at:(at 42)
  in
  let s1 = snapshot [ "b.two"; "a.one"; "c.three" ] in
  let s2 = snapshot [ "c.three"; "a.one"; "b.two" ] in
  Alcotest.(check (list string)) "rows sorted by key" [ "a.one"; "b.two"; "c.three" ]
    (List.map (fun (r : Metrics.Snapshot.row) -> r.name) s1.Metrics.Snapshot.rows);
  Alcotest.(check string) "table render is order-independent"
    (Report.Table.render (Metrics.Snapshot.to_table s1))
    (Report.Table.render (Metrics.Snapshot.to_table s2))

(* {1 Journal} *)

let test_journal_ring () =
  let j = Journal.create ~capacity:3 () in
  Alcotest.(check int) "empty" 0 (Journal.length j);
  Journal.record j ~at:(at 1) ~site:"a" (Journal.Packet_tx { bytes = 64 });
  Journal.record j ~at:(at 2) ~site:"a" (Journal.Packet_rx { bytes = 64 });
  Journal.record j ~at:(at 3) ~site:"b" Journal.Interrupt;
  Journal.record j ~at:(at 4) ~site:"b" (Journal.Retransmit { seq = 9 });
  Journal.record j ~at:(at 5) ~site:"b" Journal.Thread_wakeup;
  Alcotest.(check int) "ring holds capacity" 3 (Journal.length j);
  Alcotest.(check int) "total counts everything" 5 (Journal.total j);
  Alcotest.(check int) "dropped counts overwrites" 2 (Journal.dropped j);
  let sites = List.map (fun e -> e.Journal.site) (Journal.entries j) in
  Alcotest.(check (list string)) "oldest dropped first" [ "b"; "b"; "b" ] sites;
  (match Journal.entries j with
  | { Journal.ev = Journal.Interrupt; at = t; _ } :: _ ->
    Alcotest.(check int) "oldest retained entry" 3 (Time.since_start_ns t)
  | _ -> Alcotest.fail "unexpected oldest entry");
  Journal.clear j;
  Alcotest.(check int) "clear empties" 0 (Journal.length j);
  Alcotest.(check int) "clear resets dropped" 0 (Journal.dropped j);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Obs.Journal.create: capacity must be >= 1") (fun () ->
      ignore (Journal.create ~capacity:0 ()))

(* Every kind comes back from [entries] as recorded, in order, also
   after the ring wraps, with arguments at both ends of the packed
   range. *)
let test_journal_round_trip () =
  let evs =
    [
      Journal.Packet_tx { bytes = 1518 };
      Journal.Packet_rx { bytes = 0 };
      Journal.Retransmit { seq = 0x7fff_ffff };
      Journal.Ack { seq = -3 };
      Journal.Interrupt;
      Journal.Ipi;
      Journal.Thread_wakeup;
      Journal.Bufpool_exhausted;
      Journal.Retransmit { seq = (1 lsl 58) - 1 };
      Journal.Ack { seq = -(1 lsl 58) };
    ]
  in
  let n = List.length evs in
  let j = Journal.create ~capacity:n () in
  let record k ev = Journal.record j ~at:(at (1_000 * k)) ~site:(Printf.sprintf "s%d" (k mod 3)) ev in
  let expect k0 evs =
    List.mapi
      (fun i ev ->
        let k = k0 + i in
        { Journal.at = at (1_000 * k); site = Printf.sprintf "s%d" (k mod 3); ev })
      evs
  in
  let check msg expected =
    Alcotest.(check bool) msg true (Journal.entries j = expected)
  in
  List.iteri record evs;
  check "every kind, in order" (expect 0 evs);
  (* Wrap: the three oldest slots now hold an interrupt, an IPI and a
     received packet. *)
  let later = [ Journal.Interrupt; Journal.Ipi; Journal.Packet_rx { bytes = 64 } ] in
  List.iteri (fun i ev -> record (n + i) ev) later;
  check "after a partial wrap"
    (expect 3 (List.filteri (fun i _ -> i >= 3) evs) @ expect n later);
  (* Twice round: every slot is overwritten by a wakeup at least once,
     and some wakeups' slots by a packet. *)
  let again =
    List.init (2 * n) (fun i ->
        if i mod 4 = 0 then Journal.Packet_tx { bytes = i } else Journal.Thread_wakeup)
  in
  List.iteri (fun i ev -> record (n + 3 + i) ev) again;
  check "after wrapping twice" (expect (2 * n + 3) (List.filteri (fun i _ -> i >= n) again));
  Alcotest.(check int) "length" n (Journal.length j);
  Alcotest.(check int) "total" (n + 3 + (2 * n)) (Journal.total j);
  Alcotest.(check int) "dropped" (3 + (2 * n)) (Journal.dropped j);
  Journal.clear j;
  Journal.record j ~at:(at 5) ~site:"a" Journal.Ipi;
  check "after clear" [ { Journal.at = at 5; site = "a"; ev = Journal.Ipi } ]

(* Per-event bookkeeping is written in place: with constant arguments
   (statically allocated) neither an observation nor a journal record
   allocates a word. *)
let test_bookkeeping_zero_alloc () =
  let h = Metrics.Histogram.create () in
  let j = Journal.create ~capacity:64 () in
  let measure f =
    for i = 1 to 10 do
      f i
    done;
    let minor0 = Gc.minor_words () in
    for i = 1 to 1_000 do
      f i
    done;
    Gc.minor_words () -. minor0
  in
  Alcotest.(check (float 0.)) "Histogram.observe" 0.
    (measure (fun i -> Metrics.Histogram.observe h (if i land 1 = 0 then 3.5 else 812.25)));
  Alcotest.(check (float 0.)) "Histogram.observe_span" 0.
    (measure (fun i -> Metrics.Histogram.observe_span h (Time.ns (1_000 * i))));
  Alcotest.(check (float 0.)) "Journal.record" 0.
    (measure (fun i -> Journal.record j ~at:(at i) ~site:"server" Journal.Interrupt));
  Alcotest.(check int) "observations" 2_020 (Metrics.Histogram.count h);
  Alcotest.(check (float 1e-6)) "max" 1_000. (Metrics.Histogram.max_value h)

(* {1 Driver percentile caching} *)

let test_percentile_repeated_queries () =
  let w = Workload.World.create ~idle_load:false () in
  let o = Workload.Driver.run w ~threads:2 ~calls:30 ~proc:Workload.Driver.Null () in
  let p1 = Workload.Driver.percentile o 0.9 in
  (* Repeated and interleaved queries answer from the same sorted
     array; the outcome's visible state never changes. *)
  let p2 = Workload.Driver.percentile o 0.9 in
  Alcotest.(check int) "repeated query is stable" (Time.to_ns p1) (Time.to_ns p2);
  let p50 = Workload.Driver.percentile o 0.5 in
  let p99 = Workload.Driver.percentile o 0.99 in
  let p100 = Workload.Driver.percentile o 1.0 in
  Alcotest.(check bool) "p50 <= p90" true (Time.span_compare p50 p1 <= 0);
  Alcotest.(check bool) "p90 <= p99" true (Time.span_compare p1 p99 <= 0);
  Alcotest.(check bool) "p99 <= p100" true (Time.span_compare p99 p100 <= 0);
  let sorted = o.Workload.Driver.sorted_latencies in
  Alcotest.(check int) "p100 is the slowest call" 0
    (Time.span_compare p100 sorted.(Array.length sorted - 1));
  (* The original completion-order array is untouched by sorting. *)
  Alcotest.(check int) "latencies length unchanged" 30 (Array.length o.Workload.Driver.latencies)

(* A lossy world whose calls may run out of retries: a failed call is
   counted and its caller goes on to the next one, so every issued
   call either completes, with a latency sample, or fails. *)
let test_failed_calls_counted () =
  let w = Workload.World.create ~idle_load:false () in
  let rng = Sim.Engine.rng w.Workload.World.eng in
  Hw.Ether_link.set_fault_injector w.Workload.World.link
    (Some
       (fun _ -> if Sim.Rng.bool rng ~p:0.6 then Hw.Ether_link.Drop else Hw.Ether_link.Deliver));
  let options = { Rpc.Runtime.retransmit_after = Time.ms 50; max_retries = 2; backoff = None } in
  let o = Workload.Driver.run w ~options ~threads:2 ~calls:40 ~proc:Workload.Driver.Null () in
  let completed = Array.length o.Workload.Driver.latencies in
  Alcotest.(check int) "issued = completed + failed" 40 (completed + o.Workload.Driver.failed);
  Alcotest.(check bool) "some calls failed" true (o.Workload.Driver.failed > 0);
  Alcotest.(check bool) "some calls completed" true (completed > 0);
  Alcotest.(check int) "one sorted sample per completed call" completed
    (Array.length o.Workload.Driver.sorted_latencies)

(* An outcome carrying exactly the given latency samples; only the
   fields [percentile] reads matter. *)
let outcome_of_latencies latencies =
  let sorted = Array.copy latencies in
  Array.sort Time.span_compare sorted;
  {
    Workload.Driver.threads = 1;
    calls = Array.length latencies;
    failed = 0;
    elapsed = Time.zero_span;
    rpcs_per_sec = 0.;
    megabits_per_sec = 0.;
    caller_busy_cpus = 0.;
    server_busy_cpus = 0.;
    retransmissions = 0;
    mean_latency = Time.zero_span;
    latencies;
    sorted_latencies = sorted;
  }

(* Property: over shared samples, Driver.percentile implements the
   nearest-rank definition exactly — the smallest sample whose
   cumulative count reaches q*n — and Obs.Metrics.Histogram.percentile
   agrees with it up to its bucket resolution. *)
let test_percentile_agreement () =
  let rng = Sim.Rng.create ~seed:911 in
  for case = 1 to 40 do
    let n = 1 + Sim.Rng.int rng 400 in
    (* >= 1 us so no sample folds into the histogram's bucket 0. *)
    let samples_us =
      Array.init n (fun _ -> 1. +. (float_of_int (Sim.Rng.int rng 1_000_000) /. 100.))
    in
    let o = outcome_of_latencies (Array.map Time.us_f samples_us) in
    let h = Metrics.Histogram.create () in
    Array.iter (Metrics.Histogram.observe h) samples_us;
    let sorted = Array.copy samples_us in
    Array.sort compare sorted;
    List.iter
      (fun q ->
        (* Reference: smallest rank r (1-based) with r >= q*n. *)
        let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
        let expected = sorted.(rank - 1) in
        let got = Time.to_us (Workload.Driver.percentile o q) in
        if abs_float (got -. expected) > 1e-6 then
          Alcotest.failf "case %d n=%d q=%.3f: Driver.percentile %.3f, nearest-rank %.3f" case
            n q got expected;
        let hist = Metrics.Histogram.percentile h q in
        (* Log buckets grow by 2^(1/8) with a geometric-midpoint
           representative: within ~4.5% of the true quantile (exact at
           the clamped extremes). *)
        let ratio = hist /. expected in
        if ratio < 0.95 || ratio > 1.055 then
          Alcotest.failf "case %d n=%d q=%.3f: histogram %.3f vs exact %.3f (ratio %.4f)" case
            n q hist expected ratio)
      [ 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]
  done

(* Property: JSON string escaping round-trips arbitrary byte strings —
   quotes, backslashes, control characters, high bytes — through
   emit + parse unchanged. *)
let test_json_string_escaping_roundtrip () =
  let rng = Sim.Rng.create ~seed:4177 in
  let cases =
    [ ""; "\""; "\\"; "\\\""; "\n\r\t"; "\000\001\031"; "a\127b"; String.make 3 '\255' ]
    @ List.init 60 (fun _ ->
          String.init (Sim.Rng.int rng 40) (fun _ -> Char.chr (Sim.Rng.int rng 256)))
  in
  List.iter
    (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') ->
        if not (String.equal s s') then
          Alcotest.failf "escaping mangled %S into %S" s s'
      | Ok _ -> Alcotest.failf "string %S parsed back as a non-string" s
      | Error e -> Alcotest.failf "emitted string %S does not parse: %s" s e)
    cases

(* {1 The lane rule on traced windows} *)

let span ?(site = "m") ?(track = "cpu0") ?(kind = Sim.Trace.Service) ?(call = 0) ~label a b =
  {
    Sim.Trace.cat = "test";
    label;
    site;
    track;
    start_at = at (1000 * a);
    stop_at = at (1000 * b);
    kind;
    call;
  }

let describe (s : Sim.Trace.span) =
  Printf.sprintf "%s/%s %S [%d, %d] ns" s.site s.track s.label
    (Time.since_start_ns s.start_at) (Time.since_start_ns s.stop_at)

(* The first pair of Service spans on one (site, track) lane that
   partially overlap.  One resource does one piece of work at a time,
   so its Service spans must be disjoint or nested, like brackets.
   Queue spans are exempt: a wait for a CPU may overlap the work
   running on it. *)
let partial_overlap spans =
  let lanes = Hashtbl.create 16 in
  List.iter
    (fun (s : Sim.Trace.span) ->
      if s.kind = Sim.Trace.Service then
        let key = (s.site, s.track) in
        Hashtbl.replace lanes key (s :: Option.value (Hashtbl.find_opt lanes key) ~default:[]))
    spans;
  let enclosing_first (a : Sim.Trace.span) (b : Sim.Trace.span) =
    match Time.compare a.start_at b.start_at with
    | 0 -> Time.compare b.stop_at a.stop_at
    | c -> c
  in
  (* [open_] holds the spans still open at [s]'s start, innermost
     first; [s] must close no later than the innermost one. *)
  let rec scan open_ = function
    | [] -> None
    | (s : Sim.Trace.span) :: rest -> (
      match
        List.filter (fun (o : Sim.Trace.span) -> Time.compare o.stop_at s.start_at > 0) open_
      with
      | o :: _ when Time.compare o.stop_at s.stop_at < 0 -> Some (o, s)
      | open_ -> scan (s :: open_) rest)
  in
  Hashtbl.fold
    (fun _ lane found ->
      match found with
      | Some _ -> found
      | None -> scan [] (List.sort enclosing_first lane))
    lanes None

let test_lane_rule_flags_partial_overlap () =
  let overlaps spans = Option.is_some (partial_overlap spans) in
  Alcotest.(check bool) "open A, open B, close A, close B" true
    (overlaps [ span ~label:"A" 0 50; span ~label:"B" 30 80 ]);
  Alcotest.(check bool) "nested and disjoint pass" false
    (overlaps [ span ~label:"A" 0 50; span ~label:"B" 10 50; span ~label:"C" 50 60 ]);
  Alcotest.(check bool) "other lanes may overlap" false
    (overlaps [ span ~label:"A" 0 50; span ~track:"cpu1" ~label:"B" 30 80 ]);
  Alcotest.(check bool) "a queue wait may overlap service" false
    (overlaps [ span ~label:"A" 0 50; span ~kind:Sim.Trace.Queue ~label:"wait" 30 80 ])

(* Traced windows of one and of several callers, and of multi-packet
   results: no lane runs two pieces of work at once, and every timed
   call runs on both machines. *)
let test_lane_rule_on_real_traces () =
  List.iter
    (fun (name, threads, proc) ->
      let w = Workload.World.create ~idle_load:false () in
      let windows = Workload.Driver.run_traced w ~threads ~calls:50 ~proc () in
      let spans = Sim.Trace.spans (Sim.Engine.trace w.Workload.World.eng) in
      (match partial_overlap spans with
      | None -> ()
      | Some (a, b) -> Alcotest.failf "%s: %s partially overlaps %s" name (describe a) (describe b));
      List.iter
        (fun (win : Obs.Attrib.window) ->
          let runs_on site =
            List.exists
              (fun (s : Sim.Trace.span) -> s.call = win.w_call && String.equal s.site site)
              spans
          in
          if not (runs_on "caller" && runs_on "server") then
            Alcotest.failf "%s: call %d lacks spans on caller or server" name win.w_call)
        windows)
    Workload.Driver.
      [
        ("Null() x 1", 1, Null);
        ("Null() x 3", 3, Null);
        ("GetData(6000) x 2", 2, Get_data 6000);
      ]

(* {1 Attribution and conservation (Obs.Attrib)} *)

let breakdown_report ~proc ~calls =
  let w = Workload.World.create ~idle_load:false () in
  let windows = Workload.Driver.run_traced w ~calls ~proc () in
  let spans = Sim.Trace.spans (Sim.Engine.trace w.Workload.World.eng) in
  Obs.Attrib.attribute ~spans ~windows ()

(* Two interleaved calls and a background span, recorded out of causal
   order: each account sees only its own call's spans, windows come
   back in id order, and stage rows follow first causal appearance. *)
let test_attrib_groups_interleaved_calls () =
  let spans =
    [
      span ~call:1 ~site:"server" ~track:"cpu1" ~label:"ack" 110 115;
      span ~call:1 ~site:"server" ~label:"reply" 70 110;
      span ~call:0 ~site:"server" ~label:"reply" 40 70;
      span ~call:0 ~site:"caller" ~label:"send" 0 30;
      span ~call:1 ~site:"caller" ~track:"cpu1" ~label:"send" 10 40;
      span ~call:(-1) ~site:"caller" ~track:"cpu2" ~label:"background" 0 200;
      span ~call:0 ~site:"caller" ~track:"wire" ~label:"wire" 30 40;
    ]
  in
  let window w_call a b = { Obs.Attrib.w_call; w_start = at (1000 * a); w_stop = at (1000 * b) } in
  let r = Obs.Attrib.attribute ~spans ~windows:[ window 1 10 120; window 0 0 80 ] () in
  Alcotest.(check (list string)) "stages in first causal appearance"
    [ "send"; "wire"; "reply"; "ack" ]
    (List.map (fun (st : Obs.Attrib.stage) -> st.st_label) r.Obs.Attrib.r_stages);
  Alcotest.(check (list int)) "accounts in call order" [ 0; 1 ]
    (List.map (fun (c : Obs.Attrib.call_account) -> c.ca_call) r.Obs.Attrib.r_calls);
  (* Call 0 is busy 70 of its 80 us; call 1's reply or the background
     span would cover the rest.  Call 1 is busy 75 of 110 us; call 0's
     reply would add 30. *)
  List.iter2
    (fun (c : Obs.Attrib.call_account) (service, residual) ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "call %d service" c.ca_call) service
        c.ca_service_us;
      Alcotest.(check (float 1e-9)) (Printf.sprintf "call %d residual" c.ca_call) residual
        c.ca_unattributed_us)
    r.Obs.Attrib.r_calls [ (70., 10.); (75., 35.) ];
  match r.Obs.Attrib.r_stages with
  | [ send; wire; reply; _ ] ->
    Alcotest.(check (float 1e-9)) "send: 30 us on the caller per call" 30. send.st_caller_us;
    Alcotest.(check (float 1e-9)) "wire track lands in the wire column" 5. wire.st_wire_us;
    Alcotest.(check (float 1e-9)) "reply: mean of 30 and 40 us" 35. reply.st_server_us
  | _ -> Alcotest.fail "expected four stages"

let test_attrib_conservation_null () =
  let r = breakdown_report ~proc:Workload.Driver.Null ~calls:4 in
  Alcotest.(check int) "one account per call" 4 (List.length r.Obs.Attrib.r_calls);
  List.iter
    (fun (c : Obs.Attrib.call_account) ->
      (* The sweep partitions the window: the identity holds exactly,
         not approximately. *)
      let sum = c.ca_service_us +. c.ca_queue_us +. c.ca_unattributed_us in
      if abs_float (sum -. c.ca_elapsed_us) > 1e-6 then
        Alcotest.failf "call %d: %.6f attributed of %.6f elapsed" c.ca_call sum c.ca_elapsed_us;
      if c.ca_unattributed_us > 0.01 *. c.ca_elapsed_us then
        Alcotest.failf "call %d: residual %.1f us exceeds 1%% of %.1f us" c.ca_call
          c.ca_unattributed_us c.ca_elapsed_us)
    r.Obs.Attrib.r_calls;
  Alcotest.(check bool) "conservation gate passes" true (Obs.Attrib.conservation_ok r);
  match Obs.Attrib.check r ~scenario:Obs.Attrib.Null_call with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "check failed: %s" (String.concat "; " msgs)

let test_attrib_drift_and_check_maxarg () =
  let r = breakdown_report ~proc:Workload.Driver.Max_arg ~calls:2 in
  (match Obs.Attrib.check r ~scenario:Obs.Attrib.Max_arg_call with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "maxarg check failed: %s" (String.concat "; " msgs));
  (* The calibrated expectations honour packet sizes: MaxArg ships one
     1514-byte call packet and a 74-byte result. *)
  Alcotest.(check (option (float 1e-9)))
    "wire expectation large+small" (Some 1290.)
    (Obs.Attrib.expected_us Obs.Attrib.Max_arg_call "Transmission time on Ethernet");
  Alcotest.(check (option (float 1e-9)))
    "checksum runs on both sides of both packets" (Some 970.)
    (Obs.Attrib.expected_us Obs.Attrib.Max_arg_call "Calculate UDP checksum");
  Alcotest.(check (option (float 1e-9)))
    "null is two small packets" (Some 440.)
    (Obs.Attrib.expected_us Obs.Attrib.Null_call "Wakeup RPC thread");
  let drift = Obs.Attrib.drift r ~scenario:Obs.Attrib.Max_arg_call in
  Alcotest.(check bool) "every calibrated stage measured" true (List.length drift >= 12);
  (* A report missing a calibrated stage must fail the gate. *)
  let broken =
    {
      r with
      Obs.Attrib.r_stages =
        List.filter
          (fun (s : Obs.Attrib.stage) ->
            not (String.equal s.st_label "Wakeup RPC thread"))
          r.Obs.Attrib.r_stages;
    }
  in
  match Obs.Attrib.check broken ~scenario:Obs.Attrib.Max_arg_call with
  | Ok () -> Alcotest.fail "check accepted a report missing a calibrated stage"
  | Error _ -> ()

(* Concurrent callers queue for CPU 0 behind each other's interrupt
   work, the paper's section-6 bottleneck.  That wait must be charged to
   the call that waited, and the runner's windows must line up with the
   trace's call ids. *)
let test_attrib_concurrent_callers () =
  let w = Workload.World.create ~idle_load:false () in
  let calls = 15 in
  let windows = Workload.Driver.run_traced w ~threads:3 ~calls ~proc:Workload.Driver.Null () in
  Alcotest.(check (list int)) "one window per call, in id order" (List.init calls Fun.id)
    (List.map (fun (w : Obs.Attrib.window) -> w.w_call) windows);
  let spans = Sim.Trace.spans (Sim.Engine.trace w.Workload.World.eng) in
  let waits =
    List.filter (fun (s : Sim.Trace.span) -> String.equal s.label "Wait for free CPU") spans
  in
  Alcotest.(check bool) "callers queued for CPU 0" true
    (List.exists (fun (s : Sim.Trace.span) -> String.equal s.track "cpu0") waits);
  List.iter
    (fun (s : Sim.Trace.span) ->
      if s.call = Sim.Trace.no_call then
        Alcotest.failf "a %s wait on %s/%s is charged to no call" s.label s.site s.track)
    waits;
  List.iter
    (fun (win : Obs.Attrib.window) ->
      let own (s : Sim.Trace.span) =
        s.call = win.w_call
        && String.equal s.label "Calling stub (call & return)"
        && Time.compare s.start_at win.w_start >= 0
        && Time.compare s.stop_at win.w_stop <= 0
      in
      if not (List.exists own spans) then
        Alcotest.failf "window %d lacks its own call's stub span" win.w_call)
    windows

(* A faulted frame reaches the receiver as a copy (corrupted, duplicated,
   delayed or held for reordering).  The copy must keep the call id of
   the frame it copies, so the receiver's work on it attributes to that
   call: in a traced window with every 7th frame faulted, every
   non-background span carries a call.  Spans that started before the
   first timed call (the warm-up's tail, recorded once tracing is on)
   belong to no traced call and are left out. *)
let test_fault_copies_keep_their_call fault () =
  let w = Workload.World.create ~seed:7 () in
  let frames = ref 0 and faulted = ref 0 in
  Hw.Ether_link.set_fault_injector w.Workload.World.link
    (Some
       (fun _ ->
         incr frames;
         if !frames mod 7 = 0 then begin
           incr faulted;
           fault
         end
         else Hw.Ether_link.Deliver));
  let windows =
    Workload.Driver.run_traced w ~calls:100 ~proc:(Workload.Driver.Get_data 0) ()
  in
  let first = (List.hd windows).Obs.Attrib.w_start in
  Alcotest.(check bool) "faults were injected" true (!faulted > 10);
  List.iter
    (fun (s : Sim.Trace.span) ->
      if s.cat <> "background" && Time.compare s.start_at first >= 0 && s.call = Sim.Trace.no_call
      then Alcotest.failf "%s on %s/%s carries no call" s.label s.site s.track)
    (Sim.Trace.spans (Sim.Engine.trace w.Workload.World.eng))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1)) in
  n = 0 || go 0

let test_attrib_rendering () =
  let r = breakdown_report ~proc:Workload.Driver.Null ~calls:2 in
  let table = Report.Table.render (Obs.Attrib.table ~percentile:0.95 r) in
  List.iter
    (fun needle ->
      if not (contains ~needle table) then Alcotest.failf "table missing %S" needle)
    [ "Wakeup RPC thread"; "UNATTRIBUTED RESIDUAL"; "p95"; "END-TO-END" ];
  let csv = Obs.Attrib.to_csv r in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
    Alcotest.(check string) "csv header"
      "stage,kind,column,caller_us,server_us,wire_us,mean_us,p50_us,p99_us" header
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check bool) "csv carries the totals" true (contains ~needle:"TOTAL end-to-end" csv)

(* {1 End-to-end Chrome trace export} *)

let test_chrome_trace_export () =
  let w = Workload.World.create ~idle_load:false () in
  let windows = Workload.Driver.run_traced w ~calls:1 ~proc:Workload.Driver.Null () in
  Alcotest.(check int) "one timed call" 1 (List.length windows);
  let spans = Sim.Trace.spans (Sim.Engine.trace w.Workload.World.eng) in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  let journal = w.Workload.World.obs.Obs.Ctx.journal in
  Alcotest.(check bool) "journal has events" true (Journal.length journal > 0);
  let json = Obs.Trace_export.chrome_trace ~journal ~spans () in
  let text = Json.to_string json in
  (* The export must parse back as JSON... *)
  let parsed =
    match Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "export is not valid JSON: %s" e
  in
  let events =
    match Json.member "traceEvents" parsed with
    | Some a -> Json.items a
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  let ph e = Option.value ~default:"" (Option.bind (Json.member "ph" e) Json.str) in
  (* ...with duration spans from at least two machines (pids)... *)
  let span_pids =
    List.filter_map
      (fun e -> if ph e = "X" then Option.bind (Json.member "pid" e) Json.num else None)
      events
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "spans from >= 2 machines" true (List.length span_pids >= 2);
  (* ...named caller and server via metadata... *)
  let process_names =
    List.filter_map
      (fun e ->
        if
          ph e = "M"
          && Option.bind (Json.member "name" e) Json.str = Some "process_name"
        then Option.bind (Json.member "args" e) (fun a -> Option.bind (Json.member "name" a) Json.str)
        else None)
      events
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " is a process") true (List.mem m process_names))
    [ "caller"; "server" ];
  (* ...at least one counter track... *)
  let counters = List.filter (fun e -> ph e = "C") events in
  Alcotest.(check bool) "has a counter track" true (counters <> []);
  (* ...carrying the journal's completeness metadata... *)
  (match Json.member "metadata" parsed with
  | Some meta ->
    let field name =
      match Option.bind (Json.member name meta) Json.num with
      | Some v -> int_of_float v
      | None -> Alcotest.failf "metadata field %s missing" name
    in
    Alcotest.(check int) "metadata event count matches the journal" (Journal.length journal)
      (field "journal_events");
    Alcotest.(check int) "no drops in a one-call window" 0 (field "journal_dropped");
    Alcotest.(check int) "total = retained + dropped" (Journal.total journal)
      (field "journal_events" + field "journal_dropped")
  | None -> Alcotest.fail "no completeness metadata object");
  (* ...and the export is deterministic. *)
  let again = Json.to_string (Obs.Trace_export.chrome_trace ~journal ~spans ()) in
  Alcotest.(check string) "byte-identical re-export" text again

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "emit" `Quick test_json_emit;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "string escaping round-trips" `Quick
            test_json_string_escaping_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "balance flags partial overlap" `Quick
            test_lane_rule_flags_partial_overlap;
          Alcotest.test_case "well-formed on a real trace" `Quick test_lane_rule_on_real_traces;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "groups interleaved calls by id" `Quick
            test_attrib_groups_interleaved_calls;
          Alcotest.test_case "conservation on Null()" `Quick test_attrib_conservation_null;
          Alcotest.test_case "drift gate on MaxArg(b)" `Quick test_attrib_drift_and_check_maxarg;
          Alcotest.test_case "table and CSV rendering" `Quick test_attrib_rendering;
          Alcotest.test_case "concurrent callers charge their CPU waits" `Quick
            test_attrib_concurrent_callers;
        ]
        @ List.map
            (fun (name, fault) ->
              Alcotest.test_case ("fault copies keep call: " ^ name) `Quick
                (test_fault_copies_keep_their_call fault))
            Hw.Ether_link.
              [
                ("Duplicate", Duplicate);
                ("Corrupt", Corrupt);
                ("Corrupt_payload", Corrupt_payload);
                ("Delay", Delay (Time.us 700));
                ("Reorder", Reorder);
              ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "registry snapshot" `Quick test_registry_snapshot;
          Alcotest.test_case "deterministic rendering" `Quick
            test_snapshot_rendering_deterministic;
        ] );
      ( "journal",
        [
          Alcotest.test_case "bounded ring" `Quick test_journal_ring;
          Alcotest.test_case "every kind round-trips, also after wrapping" `Quick
            test_journal_round_trip;
          Alcotest.test_case "observe and record allocate nothing" `Quick
            test_bookkeeping_zero_alloc;
        ] );
      ( "driver",
        [
          Alcotest.test_case "percentile caching" `Quick test_percentile_repeated_queries;
          Alcotest.test_case "percentile nearest-rank agreement" `Quick
            test_percentile_agreement;
          Alcotest.test_case "failed calls are counted" `Quick test_failed_calls_counted;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome trace end-to-end" `Quick test_chrome_trace_export ] );
    ]
