module Config = Hw.Config
module Timing = Hw.Timing
module Time = Sim.Time

let us_of = Time.to_us
let t0 = Timing.create Config.default
let check_us name expected span = Alcotest.(check (float 1.0)) name expected (us_of span)

(* The simulator times the wire on the link, at the configured rate. *)
let wire_time cfg ~bytes =
  Hw.Ether_link.wire_span
    (Hw.Ether_link.create (Sim.Engine.create ()) ~mbps:cfg.Config.ethernet_mbps)
    ~bytes

(* Every fitted curve must reproduce the paper's two measured points. *)
let test_table6_calibration_points () =
  check_us "checksum @74" 45. (Timing.udp_checksum t0 ~bytes:74);
  check_us "checksum @1514" 440. (Timing.udp_checksum t0 ~bytes:1514);
  check_us "qbus tx @74" 70. (Timing.qbus_transmit t0 ~bytes:74);
  check_us "qbus tx @1514" 815. (Timing.qbus_transmit t0 ~bytes:1514);
  check_us "qbus rx @74" 80. (Timing.qbus_receive t0 ~bytes:74);
  check_us "qbus rx @1514" 836. (Timing.qbus_receive t0 ~bytes:1514);
  check_us "wire @74" 59.2 (wire_time Config.default ~bytes:74);
  Alcotest.(check (float 25.)) "wire @1514 near paper's 1230" 1230.
    (us_of (wire_time Config.default ~bytes:1514));
  check_us "udp header" 59. (Timing.finish_udp_header t0);
  check_us "trap" 37. (Timing.trap_to_nub t0);
  check_us "queue" 39. (Timing.queue_packet t0);
  check_us "ipi latency" 10. (Timing.ipi_latency t0);
  check_us "ipi handler" 76. (Timing.ipi_handler t0);
  check_us "activate" 22. (Timing.activate_controller t0);
  check_us "io interrupt" 14. (Timing.io_interrupt t0);
  check_us "demux" 177. (Timing.rx_demux t0);
  check_us "wakeup" 220. (Timing.wakeup t0)

let test_send_receive_totals () =
  (* Table VI totals: 954 us for a 74-byte packet, 4414 for 1514. *)
  let total bytes =
    Time.span_sum
      [
        Timing.finish_udp_header t0;
        Timing.udp_checksum t0 ~bytes;
        Timing.trap_to_nub t0;
        Timing.queue_packet t0;
        Timing.ipi_latency t0;
        Timing.ipi_handler t0;
        Timing.activate_controller t0;
        Timing.qbus_transmit t0 ~bytes;
        wire_time Config.default ~bytes;
        Timing.qbus_receive t0 ~bytes;
        Timing.io_interrupt t0;
        Timing.rx_demux t0;
        Timing.udp_checksum t0 ~bytes;
        Timing.wakeup t0;
      ]
  in
  Alcotest.(check (float 10.)) "74-byte send+receive" 954. (us_of (total 74));
  Alcotest.(check (float 40.)) "1514-byte send+receive" 4414. (us_of (total 1514))

let test_table7_total () =
  let total =
    Time.span_sum
      [
        Timing.caller_loop t0;
        Timing.calling_stub t0;
        Timing.starter t0;
        Timing.transporter_send t0;
        Timing.receiver_recv t0;
        Timing.server_stub t0;
        Time.us 10 (* Null body *);
        Timing.receiver_send t0;
        Timing.transporter_recv t0;
        Timing.ender t0;
      ]
  in
  check_us "Table VII total" 606. total

let test_marshalling_calibration () =
  check_us "fixed array @4" 20. (Timing.marshal_fixed_array t0 ~bytes:4);
  check_us "fixed array @400" 140. (Timing.marshal_fixed_array t0 ~bytes:400);
  check_us "var array @1" 115. (Timing.marshal_var_array t0 ~bytes:1);
  check_us "var array @1440" 550. (Timing.marshal_var_array t0 ~bytes:1440);
  check_us "text NIL" 89. (Timing.marshal_text_nil t0);
  Alcotest.(check (float 3.)) "text @1 total" 378.
    (us_of
       (Time.span_add (Timing.marshal_text_caller t0 ~bytes:1) (Timing.marshal_text_server t0 ~bytes:1)));
  Alcotest.(check (float 5.)) "text @128 total" 659.
    (us_of
       (Time.span_add
          (Timing.marshal_text_caller t0 ~bytes:128)
          (Timing.marshal_text_server t0 ~bytes:128)));
  check_us "int caller+server" 8.
    (Time.span_add (Timing.marshal_int_caller t0) (Timing.marshal_int_server t0))

let test_local_rpc_calibration () =
  (* Local Null(): stubs + local runtime + 2 wakeups + 2 dispatches = 937. *)
  let total =
    Time.span_sum
      [
        Timing.caller_loop t0;
        Timing.calling_stub t0;
        Timing.server_stub t0;
        Time.us 10;
        Timing.local_starter t0;
        Timing.local_transporter_send t0;
        Timing.local_receiver t0;
        Timing.local_receiver_send t0;
        Timing.local_transporter_recv t0;
        Timing.local_ender t0;
        Timing.wakeup t0;
        Timing.wakeup t0;
        Timing.dispatch t0;
        Timing.dispatch t0;
      ]
  in
  check_us "local Null total" 937. total

let test_cpu_speedup_scales_software_only () =
  let cfg = { Config.default with cpus = 5; cpu_speedup = 3.0 } in
  let fast = Timing.create cfg in
  check_us "software divides by 3" (177. /. 3.) (Timing.rx_demux fast);
  check_us "wire unchanged" 59.2 (wire_time cfg ~bytes:74);
  check_us "qbus unchanged" 70. (Timing.qbus_transmit fast ~bytes:74)

let test_network_speedup () =
  let cfg = { Config.default with ethernet_mbps = 100. } in
  let fast = Timing.create cfg in
  Alcotest.(check (float 2.)) "wire 10x faster" 121. (us_of (wire_time cfg ~bytes:1514));
  check_us "checksum unaffected" 440. (Timing.udp_checksum fast ~bytes:1514)

let test_improvement_flags () =
  let no_cks = Timing.create { Config.default with udp_checksums = false } in
  check_us "checksums disabled" 0. (Timing.udp_checksum no_cks ~bytes:1514);
  let modula = Timing.create { Config.default with interrupt_code = Config.Final_modula2 } in
  check_us "final modula2 interrupt" 547. (Timing.rx_demux modula);
  let orig = Timing.create { Config.default with interrupt_code = Config.Original_modula2 } in
  check_us "original modula2 interrupt" 758. (Timing.rx_demux orig);
  let hand = Timing.create { Config.default with hand_runtime = true } in
  check_us "hand runtime starter" (128. /. 3.) (Timing.starter hand);
  check_us "hand runtime stub unchanged" 90. (Timing.calling_stub hand);
  let redesigned = Timing.create { Config.default with redesigned_header = true } in
  check_us "redesigned header demux" 107. (Timing.rx_demux redesigned);
  check_us "redesigned header sender" 29. (Timing.finish_udp_header redesigned);
  let busy = Timing.create { Config.default with busy_wait = true } in
  check_us "busy wait wakeup" 10. (Timing.wakeup busy)

let test_exerciser_stubs () =
  let ex = Timing.create { Config.default with hand_stubs = true } in
  check_us "hand calling stub" 10. (Timing.calling_stub ex);
  check_us "no marshalling" 0. (Timing.marshal_var_array ex ~bytes:1440);
  (* The Exerciser saves 140 us on Null: (90-10) + (68-8). *)
  let saving =
    Time.span_add
      (Time.span_sub (Timing.calling_stub t0) (Timing.calling_stub ex))
      (Time.span_sub (Timing.server_stub t0) (Timing.server_stub ex))
  in
  check_us "exerciser Null saving" 140. saving

let test_frame_geometry () =
  Alcotest.(check int) "overhead 74" 74 (Timing.frame_overhead_bytes t0);
  Alcotest.(check int) "payload 1440" 1440 (Timing.max_payload_bytes t0);
  let raw = Timing.create { Config.default with raw_ethernet = true } in
  Alcotest.(check int) "raw overhead 46" 46 (Timing.frame_overhead_bytes raw);
  Alcotest.(check int) "raw payload 1468" 1468 (Timing.max_payload_bytes raw)

let test_uniproc_model () =
  check_us "no penalty on 5 CPUs" 0. (Timing.uniproc_wakeup_extra t0);
  Alcotest.(check (float 0.)) "no bug on 5 CPUs" 0. (Timing.uniproc_bug_loss_probability t0);
  let uni = Timing.create { Config.default with cpus = 1 } in
  Alcotest.(check bool) "penalty on 1 CPU" true
    (us_of (Timing.uniproc_wakeup_extra uni) > 0.);
  Alcotest.(check bool) "bug without fix" true (Timing.uniproc_bug_loss_probability uni > 0.);
  let fixed = Timing.create Config.uniprocessor in
  Alcotest.(check (float 0.)) "fix removes bug" 0. (Timing.uniproc_bug_loss_probability fixed);
  check_us "fix costs nothing on uniproc" 0. (Timing.multiproc_fix_cost fixed);
  let mp_fixed = Timing.create { Config.default with uniproc_fix = true } in
  check_us "fix costs 100us on multiproc" 100. (Timing.multiproc_fix_cost mp_fixed)

let test_config_validate () =
  (match Config.validate Config.default with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Config.validate { Config.default with cpus = 0 } with
  | Ok _ -> Alcotest.fail "accepted 0 cpus"
  | Error _ -> ());
  (match Config.validate { Config.default with ethernet_mbps = -1. } with
  | Ok _ -> Alcotest.fail "accepted negative rate"
  | Error _ -> ());
  (* A NaN passes a [<= 0.] test, and an infinite rate or speedup makes
     the scaled times zero: both fields must be finite. *)
  let set_speedup x = { Config.default with cpu_speedup = x }
  and set_mbps x = { Config.default with ethernet_mbps = x } in
  List.iter
    (fun (field, set) ->
      List.iter
        (fun x ->
          match Config.validate (set x) with
          | Ok _ -> Alcotest.failf "accepted %s = %h" field x
          | Error _ -> ())
        [ Float.nan; Float.infinity; Float.neg_infinity ];
      match Config.validate (set 1e12) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected %s = 1e12: %s" field e)
    [ ("cpu_speedup", set_speedup); ("ethernet_mbps", set_mbps) ]

let suite =
  [
    Alcotest.test_case "Table VI calibration points" `Quick test_table6_calibration_points;
    Alcotest.test_case "Table VI totals (954/4414)" `Quick test_send_receive_totals;
    Alcotest.test_case "Table VII total (606)" `Quick test_table7_total;
    Alcotest.test_case "Tables II-V marshalling" `Quick test_marshalling_calibration;
    Alcotest.test_case "local RPC total (937)" `Quick test_local_rpc_calibration;
    Alcotest.test_case "cpu speedup scales software only" `Quick
      test_cpu_speedup_scales_software_only;
    Alcotest.test_case "network speedup" `Quick test_network_speedup;
    Alcotest.test_case "improvement flags" `Quick test_improvement_flags;
    Alcotest.test_case "exerciser stubs" `Quick test_exerciser_stubs;
    Alcotest.test_case "frame geometry" `Quick test_frame_geometry;
    Alcotest.test_case "uniprocessor model" `Quick test_uniproc_model;
    Alcotest.test_case "config validation" `Quick test_config_validate;
  ]
