(* The fleet tier: seeded determinism of whole-cluster runs, node-to-
   node binding through the cluster's binder, arrival-generator
   statistics, conservation invariants, and the saturation regression —
   CPU 0 interrupt serialization must be the first bottleneck a
   1-server/64-client incast hits at the default constants. *)

module Gen = Fleet.Gen
module Scenario = Fleet.Scenario
module Cluster = Fleet.Cluster
module Topology = Fleet.Topology

(* Small enough for tier-1 time, big enough to exercise every node. *)
let small_spec =
  {
    Scenario.default with
    Scenario.s_nodes = 3;
    s_clients = 6;
    s_calls = 60;
  }

(* {1 Seeded determinism} *)

let test_render_deterministic () =
  (* Two runs from fresh clusters: the rendered report must be
     byte-identical — no wall-clock, no hash-order, no leftover state. *)
  let r1, _ = Scenario.run small_spec in
  let r2, _ = Scenario.run small_spec in
  Alcotest.(check string)
    "same seed, byte-identical report" (Scenario.render r1) (Scenario.render r2)

let test_seed_changes_report () =
  let r1, _ = Scenario.run small_spec in
  let r2, _ = Scenario.run { small_spec with Scenario.s_seed = 43 } in
  Alcotest.(check bool)
    "different seed, different elapsed" true
    (r1.Scenario.r_elapsed_us <> r2.Scenario.r_elapsed_us)

let test_open_loop_deterministic () =
  let spec =
    { small_spec with Scenario.s_arrival = Gen.Poisson { rate_per_sec = 150. } }
  in
  let r1, _ = Scenario.run spec in
  let r2, _ = Scenario.run spec in
  Alcotest.(check string)
    "open loop is a pure function of the seed" (Scenario.render r1) (Scenario.render r2)

(* {1 Conservation and quiescence invariants} *)

let run_and_check spec =
  let r, _ = Scenario.run spec in
  (match Scenario.check r with
  | Ok () -> ()
  | Error es -> Alcotest.failf "invariants violated: %s" (String.concat "; " es));
  r

let test_conservation_uniform () =
  let r = run_and_check small_spec in
  Alcotest.(check int) "issued all" 60 r.Scenario.r_issued;
  Alcotest.(check int) "completed + failed = issued" 60
    (r.Scenario.r_completed + r.Scenario.r_failed)

let test_conservation_straggler () =
  let r = run_and_check { small_spec with Scenario.s_kind = Scenario.Straggler } in
  (* The straggler's own-node p50 must exceed the fast nodes'. *)
  let by_name n = List.find (fun nr -> nr.Scenario.nr_name = n) r.Scenario.r_nodes in
  Alcotest.(check bool) "straggler p50 above node0 p50" true
    ((by_name "node2").Scenario.nr_p50_us > (by_name "node0").Scenario.nr_p50_us)

let test_closed_loop_bound () =
  let r = run_and_check small_spec in
  Alcotest.(check bool) "closed loop bounded by client slots" true
    (r.Scenario.r_max_in_flight <= small_spec.Scenario.s_clients)

let test_open_loop_completes () =
  let r =
    run_and_check
      { small_spec with Scenario.s_arrival = Gen.Pareto { alpha = 1.5; rate_per_sec = 150. } }
  in
  Alcotest.(check int) "no failed calls at moderate load" 0 r.Scenario.r_failed

(* {1 The saturation regression} *)

let test_incast_first_bottleneck_is_cpu0 () =
  (* The paper's §6 finding, reproduced at fleet scale: fanning 64
     clients into one server saturates the server's CPU 0 (all receive
     interrupts serialize there) before the receive-buffer pool, the
     switch egress queue or the worker pool give out. *)
  let spec =
    {
      Scenario.default with
      Scenario.s_nodes = 4;
      s_clients = 64;
      s_calls = 400;
      s_kind = Scenario.Incast;
    }
  in
  let r = run_and_check spec in
  (match r.Scenario.r_bottleneck with
  | Scenario.Cpu0_interrupts -> ()
  | b -> Alcotest.failf "expected Cpu0_interrupts, got %s" (Scenario.bottleneck_to_string b));
  let server = List.hd r.Scenario.r_nodes in
  Alcotest.(check string) "node0 is the server" "server" server.Scenario.nr_role;
  Alcotest.(check bool) "server CPU 0 saturated at p90 completion" true
    (server.Scenario.nr_cpu0_util >= 0.9);
  Alcotest.(check int) "server answered every call" 400 server.Scenario.nr_served

(* {1 Call ids under load} *)

let test_incast_spans_carry_calls () =
  (* Every hop carries a frame's call id — controller queues, the
     client's segment, the switch's egress queue and port, the server's
     segment — so under incast every non-background span belongs to a
     call.  The one exception is a client thread's wait for its first
     CPU at time zero: no call exists yet. *)
  let spec =
    {
      Scenario.default with
      Scenario.s_nodes = 8;
      s_clients = 64;
      s_calls = 200;
      s_kind = Scenario.Incast;
    }
  in
  let _, art = Scenario.run ~trace:true spec in
  let spans =
    List.filter (fun (s : Sim.Trace.span) -> s.cat <> "background") art.Scenario.a_spans
  in
  let startup (s : Sim.Trace.span) =
    s.label = "Wait for free CPU" && Sim.Time.compare s.start_at Sim.Time.zero = 0
  in
  List.iter
    (fun (s : Sim.Trace.span) ->
      if s.call = Sim.Trace.no_call && not (startup s) then
        Alcotest.failf "%s on %s/%s at %.1f us carries no call" s.label s.site s.track
          (Sim.Time.since_start_us s.start_at))
    spans;
  Alcotest.(check bool) "switch ports queued frames" true
    (List.exists (fun (s : Sim.Trace.span) -> s.label = "Wait for Ethernet medium") spans)

(* {1 Binding nodes} *)

let test_bind_remote_and_self () =
  let cl = Cluster.create ~nodes:3 () in
  Cluster.export cl ~node:0 ();
  Alcotest.(check bool) "another node's bind crosses the switch" false
    (Rpc.Runtime.is_local (Cluster.bind cl ~client:2 ~server:0 ()));
  Alcotest.(check bool) "a node's bind to itself is shared memory" true
    (Rpc.Runtime.is_local (Cluster.bind cl ~client:0 ~server:0 ()));
  Alcotest.(check int) "binds counted" 2 cl.Cluster.cl_binds

let test_bind_unexported () =
  let cl = Cluster.create ~nodes:3 () in
  Cluster.export cl ~node:0 ();
  Alcotest.check_raises "a node exporting nothing raises Unbound_interface"
    (Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Unbound_interface "Test v1"))
    (fun () -> ignore (Cluster.bind cl ~client:2 ~server:1 ()))

let test_export_twice () =
  let cl = Cluster.create ~nodes:3 () in
  Cluster.export cl ~node:0 ();
  let raised =
    try
      Cluster.export cl ~node:0 ();
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "second export on a node rejected" true raised

(* {1 The switched topology} *)

let test_topology_validation () =
  let eng = Sim.Engine.create ~seed:7 () in
  let sw = Topology.create ~obs:(Obs.Ctx.create ()) eng ~mbps:10. ~ports:2 () in
  let mac i = Net.Mac.of_string (Printf.sprintf "aa:00:04:00:%02x:10" i) in
  Topology.register_mac sw ~mac:(mac 1) ~port:0;
  (let raised =
     try
       Topology.register_mac sw ~mac:(mac 1) ~port:1;
       false
     with Invalid_argument _ -> true
   in
   Alcotest.(check bool) "duplicate MAC rejected" true raised);
  let raised =
    try
      Topology.register_mac sw ~mac:(mac 2) ~port:9;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad port rejected" true raised

let test_topology_counters_in_report () =
  (* Every unicast frame in a fleet run crosses the switch: forwarded
     must cover request + result traffic and nothing may vanish
     unaccounted at the default egress capacity. *)
  let r, _ = Scenario.run small_spec in
  Alcotest.(check bool) "switch forwarded at least 2 frames per call" true
    (r.Scenario.r_switch_forwarded >= 2 * r.Scenario.r_completed);
  Alcotest.(check int) "no unknown-MAC drops" 0 r.Scenario.r_unknown_drops;
  Alcotest.(check int) "no incast drops at default capacity" 0 r.Scenario.r_incast_drops

(* {1 Arrival-generator statistics (property tests)} *)

let mean samples = List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples)

let draw_n rng arrival n = List.init n (fun _ -> Gen.interarrival_us rng arrival)

let prop_poisson_mean =
  QCheck.Test.make ~name:"poisson inter-arrival mean ~ 1/rate" ~count:20
    QCheck.(pair (int_range 1 1000) (int_range 50 5000))
    (fun (seed, rate) ->
      let rate = float_of_int rate in
      let rng = Sim.Rng.create ~seed in
      let m = mean (draw_n rng (Gen.Poisson { rate_per_sec = rate }) 4000) in
      let expect = 1e6 /. rate in
      abs_float (m -. expect) < 0.1 *. expect)

let prop_pareto_tail =
  QCheck.Test.make ~name:"pareto draws bounded below by xm, Hill tail index sane" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let alpha = 1.5 and rate = 200. in
      let xm = 1e6 /. rate *. ((alpha -. 1.) /. alpha) in
      let samples = draw_n rng (Gen.Pareto { alpha; rate_per_sec = rate }) 8000 in
      let all_above = List.for_all (fun x -> x >= xm *. 0.999) samples in
      (* Hill-style estimator over the full sample: for a pure Pareto,
         1/alpha = E[log (x / xm)]. *)
      let inv_alpha = mean (List.map (fun x -> log (x /. xm)) samples) in
      let est = 1. /. inv_alpha in
      all_above && est > 1.2 && est < 1.9)

let prop_pareto_mean =
  QCheck.Test.make ~name:"pareto mean matches the requested rate" ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let rate = 200. in
      let m = mean (draw_n rng (Gen.Pareto { alpha = 2.5; rate_per_sec = rate }) 20000) in
      let expect = 1e6 /. rate in
      (* Heavy tail: generous tolerance even at 20k draws. *)
      abs_float (m -. expect) < 0.25 *. expect)

let prop_closed_loop_constant =
  QCheck.Test.make ~name:"closed-loop think gap is the constant" ~count:50
    QCheck.(pair (int_range 1 1000) (float_range 0. 1e5))
    (fun (seed, think) ->
      let rng = Sim.Rng.create ~seed in
      Gen.interarrival_us rng (Gen.Closed { think_us = think }) = think)

let prop_generator_seeded =
  QCheck.Test.make ~name:"same seed, same stream" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let a = Gen.Poisson { rate_per_sec = 500. } in
      draw_n (Sim.Rng.create ~seed) a 100 = draw_n (Sim.Rng.create ~seed) a 100)

let test_generator_validation () =
  let rng = Sim.Rng.create ~seed:1 in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "alpha <= 1 rejected" true
    (invalid (fun () -> Gen.interarrival_us rng (Gen.Pareto { alpha = 1.; rate_per_sec = 10. })));
  Alcotest.(check bool) "zero rate rejected" true
    (invalid (fun () -> Gen.interarrival_us rng (Gen.Poisson { rate_per_sec = 0. })));
  Alcotest.(check bool) "negative think rejected" true
    (invalid (fun () -> Gen.interarrival_us rng (Gen.Closed { think_us = -1. })));
  Alcotest.(check bool) "pareto xm <= 0 rejected" true
    (invalid (fun () -> Gen.pareto rng ~alpha:2. ~xm:0.));
  (* [validate] accepts exactly what [interarrival_us] draws from. *)
  let values = [ -1.; 0.; 0.5; 1.; 1.0001; 1.5; 200.; Float.nan; Float.infinity ] in
  let arrivals =
    List.concat_map
      (fun x ->
        Gen.Poisson { rate_per_sec = x } :: Gen.Closed { think_us = x }
        :: List.map (fun alpha -> Gen.Pareto { alpha; rate_per_sec = x }) values)
      values
  in
  List.iter
    (fun a ->
      Alcotest.(check bool) (Gen.to_string a)
        (not (invalid (fun () -> Gen.interarrival_us rng a)))
        (Result.is_ok (Gen.validate a)))
    arrivals

(* {1 Spec validation} *)

let test_spec_validation () =
  let invalid spec = try ignore (Scenario.run spec); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "1 node rejected" true
    (invalid { small_spec with Scenario.s_nodes = 1 });
  Alcotest.(check bool) "0 clients rejected" true
    (invalid { small_spec with Scenario.s_clients = 0 });
  Alcotest.(check bool) "0 calls rejected" true
    (invalid { small_spec with Scenario.s_calls = 0 });
  Alcotest.(check bool) "negative payload rejected" true
    (invalid { small_spec with Scenario.s_payload = -1 });
  (* [validate] decides without running: the default, perfbench's
     fleet-incast spec and the CI smoke pass, and each field's first
     value outside its range fails. *)
  let d = Scenario.default in
  List.iter
    (fun (name, spec) ->
      Alcotest.(check bool) (name ^ " accepted") true (Result.is_ok (Scenario.validate spec)))
    [
      ("default", d);
      ( "fleet-incast",
        { d with Scenario.s_nodes = 8; s_clients = 64; s_calls = 2000; s_kind = Scenario.Incast } );
      ( "CI smoke",
        { d with Scenario.s_nodes = 4; s_clients = 16; s_calls = 200; s_kind = Scenario.Incast } );
      ("200 nodes", { d with Scenario.s_nodes = Cluster.max_nodes });
      ( "largest payload",
        { d with Scenario.s_payload = Workload.Test_interface.get_data_max } );
    ];
  List.iter
    (fun (name, spec) ->
      Alcotest.(check bool) (name ^ " rejected") true (Result.is_error (Scenario.validate spec)))
    [
      ( "Pareto alpha 1",
        { d with Scenario.s_arrival = Gen.Pareto { alpha = 1.; rate_per_sec = 200. } } );
      ("think -1", { d with Scenario.s_arrival = Gen.Closed { think_us = -1. } });
      ("Poisson rate 0", { d with Scenario.s_arrival = Gen.Poisson { rate_per_sec = 0. } });
      ("201 nodes", { d with Scenario.s_nodes = Cluster.max_nodes + 1 });
      ("egress capacity 0", { d with Scenario.s_egress_capacity = 0 });
      ( "payload above the maximum",
        { d with Scenario.s_payload = Workload.Test_interface.get_data_max + 1 } );
      ("straggler speedup 0", { d with Scenario.s_straggler_speedup = 0. });
      ("switch latency -1", { d with Scenario.s_switch_latency_us = -1. });
      ("switch latency nan", { d with Scenario.s_switch_latency_us = Float.nan });
    ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [
      ( "determinism",
        [
          Alcotest.test_case "byte-identical render" `Quick test_render_deterministic;
          Alcotest.test_case "seed changes the run" `Quick test_seed_changes_report;
          Alcotest.test_case "open loop deterministic" `Quick test_open_loop_deterministic;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "conservation (uniform)" `Quick test_conservation_uniform;
          Alcotest.test_case "straggler stretches its node" `Quick test_conservation_straggler;
          Alcotest.test_case "closed-loop concurrency bound" `Quick test_closed_loop_bound;
          Alcotest.test_case "open loop completes at moderate load" `Quick
            test_open_loop_completes;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "incast 64->1: CPU 0 interrupts first" `Quick
            test_incast_first_bottleneck_is_cpu0;
        ] );
      ( "call ids",
        [ Alcotest.test_case "incast spans carry their call" `Quick test_incast_spans_carry_calls ]
      );
      ( "binding",
        [
          Alcotest.test_case "remote and self binds" `Quick test_bind_remote_and_self;
          Alcotest.test_case "unexported server" `Quick test_bind_unexported;
          Alcotest.test_case "export twice rejected" `Quick test_export_twice;
        ] );
      ( "topology",
        [
          Alcotest.test_case "validation" `Quick test_topology_validation;
          Alcotest.test_case "switch counters in the report" `Quick
            test_topology_counters_in_report;
        ] );
      ( "generators",
        [
          q prop_poisson_mean;
          q prop_pareto_tail;
          q prop_pareto_mean;
          q prop_closed_loop_constant;
          q prop_generator_seeded;
          Alcotest.test_case "validation" `Quick test_generator_validation;
        ] );
      ("spec", [ Alcotest.test_case "validation" `Quick test_spec_validation ]);
    ]
