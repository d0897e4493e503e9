module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Config = Hw.Config
module Driver = Workload.Driver
module World = Workload.World

type client_row = {
  client_machines : int;
  total_rps : float;
  total_mbps : float;
  server_busy_cpus : float;
  wire_utilization : float;
}

let multi_client ~calls_per_client ~proc =
  let threads_per_client = 2 in
  let run n_clients =
    let w = World.create () in
    (* Extra client machines beyond the built-in caller. *)
    let extra =
      List.init (n_clients - 1) (fun i ->
          let m, _node, rt =
            World.add_machine w
              ~name:(Printf.sprintf "client%d" (i + 2))
              ~config:Config.default ~station:(10 + i)
              ~ip:(Printf.sprintf "16.0.0.%d" (10 + i))
          in
          (m, rt))
    in
    let gate = Sim.Gate.create w.World.eng in
    let total = n_clients * calls_per_client in
    let finished = ref 0 in
    let threads_total = n_clients * threads_per_client in
    let start_client machine rt =
      let binding = Rpc.Binder.import w.World.binder rt ~name:"Test" ~version:1 () in
      for _ = 1 to threads_per_client do
        Machine.spawn_thread machine ~name:"client-thread" (fun () ->
            Cpu_set.with_cpu (Machine.cpus machine) (fun ctx ->
                let client = Rpc.Runtime.new_client rt in
                for _ = 1 to calls_per_client / threads_per_client do
                  let outs =
                    Rpc.Runtime.call binding client ctx ~proc_idx:(Driver.proc_idx proc)
                      ~args:(Driver.args_of proc)
                  in
                  if not (Driver.result_ok proc outs) then
                    failwith "Extensions.multi_client: wrong result"
                done);
            incr finished;
            if !finished = threads_total then Sim.Gate.open_ gate)
      done
    in
    start_client w.World.caller w.World.caller_rt;
    List.iter (fun (m, rt) -> start_client m rt) extra;
    let t0 = Engine.now w.World.eng in
    World.run_until_quiet w gate;
    let elapsed = Time.to_sec (Time.diff (Engine.now w.World.eng) t0) in
    {
      client_machines = n_clients;
      total_rps = float_of_int total /. elapsed;
      total_mbps = float_of_int (total * Driver.payload_bytes proc * 8) /. elapsed /. 1e6;
      server_busy_cpus = Machine.average_busy_cpus w.World.server ~upto:(Engine.now w.World.eng);
      wire_utilization = Hw.Ether_link.utilization w.World.link ~upto:(Engine.now w.World.eng);
    }
  in
  List.map run [ 1; 2; 3; 4 ]

type saturation = {
  tx_frames_per_sec : float;
  rx_frames_per_sec : float;
  rx_over_tx : float;
}

let controller_saturation () =
  let timing = Hw.Timing.create Config.default in
  let frames = 300 in
  let frame_of ~src ~dst =
    let w = Wire.Bytebuf.Writer.create Net.Ethernet.max_frame_size in
    Net.Ethernet.encode w
      { Net.Ethernet.dst; src; ethertype = Net.Ethernet.ethertype_ipv4 };
    Wire.Bytebuf.Writer.zeros w (Net.Ethernet.max_frame_size - Net.Ethernet.header_size);
    Wire.Bytebuf.Writer.contents w
  in
  (* Transmission: one controller drains a long queue. *)
  let tx_rate =
    let eng = Engine.create () in
    let link = Hw.Ether_link.create eng ~mbps:10. in
    let qbus = Sim.Resource.create eng in
    let obs = Obs.Ctx.create () in
    let a = Hw.Deqna.create eng timing ~link ~qbus ~mac:(Net.Mac.of_station 1) ~obs () in
    (* a sink station so frames are deliverable *)
    ignore
      (Hw.Ether_link.attach link ~mac:(Net.Mac.of_station 2)
         ~on_frame_start:(fun ~frame:_ ~call:_ ~wire:_ -> ()));
    let payload = frame_of ~src:(Net.Mac.of_station 1) ~dst:(Net.Mac.of_station 2) in
    for _ = 1 to frames do
      Hw.Deqna.queue_tx a payload
    done;
    Hw.Deqna.start_transmit a;
    Engine.run_while eng (fun () -> Hw.Deqna.tx_frames a < frames);
    float_of_int frames /. Time.since_start_sec (Engine.now eng)
  in
  (* Reception: two senders saturate one receiver. *)
  let rx_rate =
    let eng = Engine.create () in
    let link = Hw.Ether_link.create eng ~mbps:10. in
    let obs = Obs.Ctx.create () in
    let mk n =
      let qbus = Sim.Resource.create eng in
      Hw.Deqna.create eng timing ~link ~qbus ~mac:(Net.Mac.of_station n) ~obs ()
    in
    let s1 = mk 1 and s2 = mk 2 and rx = mk 3 in
    let drained = ref 0 in
    let last_drain = ref Time.zero in
    Hw.Deqna.set_interrupt_handler rx (fun () ->
        let rec drain () =
          match Hw.Deqna.take_rx rx with
          | Some _ ->
            incr drained;
            last_drain := Engine.now eng;
            Hw.Deqna.add_rx_credits rx 1;
            drain ()
          | None -> ()
        in
        drain ();
        Hw.Deqna.interrupt_done rx);
    Hw.Deqna.add_rx_credits rx 64;
    let dst = Net.Mac.of_station 3 in
    List.iter
      (fun (s, src) ->
        let payload = frame_of ~src ~dst in
        for _ = 1 to frames do
          Hw.Deqna.queue_tx s payload
        done;
        Hw.Deqna.start_transmit s)
      [ (s1, Net.Mac.of_station 1); (s2, Net.Mac.of_station 2) ];
    Engine.run_until eng (Time.add Time.zero (Time.sec 5));
    (* Rate over the active reception window, not the idle tail. *)
    float_of_int !drained /. Time.since_start_sec !last_drain
  in
  { tx_frames_per_sec = tx_rate; rx_frames_per_sec = rx_rate; rx_over_tx = rx_rate /. tx_rate }

type tail_row = {
  tail_threads : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let latency_tails ~calls =
  List.map
    (fun threads ->
      let o = Exp_common.throughput ~threads ~calls ~proc:Driver.Null () in
      let p q = Time.to_ms (Driver.percentile o q) in
      { tail_threads = threads; p50_ms = p 0.5; p90_ms = p 0.9; p99_ms = p 0.99; max_ms = p 1.0 })
    [ 1; 2; 4; 7 ]

type transport_row = { transport : string; null_latency_us : float }

let transport_comparison () =
  let measure transport =
    Time.to_us (Driver.measure_single_call (World.create ()) ~transport ~proc:Driver.Null ())
  in
  [
    { transport = "shared memory (same machine)"; null_latency_us = measure `Local };
    { transport = "custom protocol on IP/UDP"; null_latency_us = measure `Auto };
    { transport = "DECNet session"; null_latency_us = measure `Decnet };
  ]

let multi_client_table ~quick =
  Report.Table.make ~id:"multi-client"
    ~title:"Extension: several client machines against one server (MaxResult)"
    ~columns:[ "clients"; "total RPC/s"; "Mbit/s"; "server CPUs"; "wire util %" ]
    ~notes:
      [
        "each client machine runs 2 caller threads; the server and the shared wire become the bottleneck";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.client_machines;
           Report.Table.cell_f ~decimals:0 r.total_rps;
           Report.Table.cell_f ~decimals:2 r.total_mbps;
           Report.Table.cell_f r.server_busy_cpus;
           Report.Table.cell_f ~decimals:0 (100. *. r.wire_utilization);
         ])
       (multi_client ~calls_per_client:(if quick then 150 else 800) ~proc:Driver.Max_result))

let controller_saturation_table () =
  let sat = controller_saturation () in
  Report.Table.make ~id:"controller-saturation"
    ~title:"Extension: DEQNA saturated transmission vs reception (1514-byte frames)"
    ~columns:[ "direction"; "frames/s" ]
    ~notes:
      [
        Printf.sprintf
          "reception / transmission = %.2f; the paper's footnote (section 4.1) reports ~1.4 — the model agrees on the direction but overlaps reception more than the real DEQNA did (see Timing.deqna_rx_recovery)"
          sat.rx_over_tx;
      ]
    [
      [ "transmission (queue drain)"; Report.Table.cell_f ~decimals:0 sat.tx_frames_per_sec ];
      [ "reception (two senders)"; Report.Table.cell_f ~decimals:0 sat.rx_frames_per_sec ];
    ]

let latency_tails_table ~quick =
  Report.Table.make ~id:"latency-tails"
    ~title:"Extension: Null() latency distribution under load (ms)"
    ~columns:[ "threads"; "p50"; "p90"; "p99"; "max" ]
    ~notes:
      [
        "queueing on the serialized CPU-0 interrupt/scheduler work stretches the tail as offered load approaches the ~740/s ceiling";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.tail_threads;
           Report.Table.cell_f r.p50_ms;
           Report.Table.cell_f r.p90_ms;
           Report.Table.cell_f r.p99_ms;
           Report.Table.cell_f r.max_ms;
         ])
       (latency_tails ~calls:(if quick then 600 else 4000)))

let transports_table () =
  Report.Table.make ~id:"transports"
    ~title:"Extension: the bind-time transport choice, measured (trivial call)"
    ~columns:[ "transport"; "latency us" ]
    ~notes:
      [
        "the paper's three transports (section 3.1); its own figures: local 937 us, custom protocol 2660 us";
        "the general-purpose DECNet path is the baseline the custom fast path was built to beat";
      ]
    (List.map
       (fun r -> [ r.transport; Report.Table.cell_f ~decimals:0 r.null_latency_us ])
       (transport_comparison ()))
