module Engine = Sim.Engine
module Time = Sim.Time
module Machine = Nub.Machine
module Cpu_set = Hw.Cpu_set
module Ti = Workload.Test_interface

type kind = Uniform | Incast | Straggler

let kind_to_string = function
  | Uniform -> "uniform"
  | Incast -> "incast"
  | Straggler -> "straggler"

type spec = {
  s_nodes : int;
  s_clients : int;
  s_calls : int;
  s_arrival : Gen.arrival;
  s_kind : kind;
  s_seed : int;
  s_payload : int;
  s_straggler_speedup : float;
  s_switch_latency_us : float;
  s_egress_capacity : int;
}

let default =
  {
    s_nodes = 4;
    s_clients = 16;
    s_calls = 400;
    s_arrival = Gen.Closed { think_us = 0. };
    s_kind = Uniform;
    s_seed = 42;
    s_payload = 0;
    s_straggler_speedup = 0.25;
    s_switch_latency_us = 10.;
    s_egress_capacity = 32;
  }

type node_report = {
  nr_name : string;
  nr_role : string;
  nr_issued : int;
  nr_served : int;
  nr_p50_us : float;
  nr_p99_us : float;
  nr_p999_us : float;
  nr_busy_cpus : float;
  nr_cpu0_util : float;
  nr_interrupts : int;
  nr_rx_lost : int;
  nr_pool_exhaustions : int;
}

type bottleneck = Cpu0_interrupts | Rx_buffer_pool | Switch_egress | Call_table | Unsaturated

let bottleneck_to_string = function
  | Cpu0_interrupts -> "CPU 0 interrupt serialization"
  | Rx_buffer_pool -> "receive buffer pool"
  | Switch_egress -> "switch egress queue"
  | Call_table -> "call table / worker pool (Busy replies)"
  | Unsaturated -> "none (unsaturated)"

type report = {
  r_spec : spec;
  r_issued : int;
  r_completed : int;
  r_failed : int;
  r_max_in_flight : int;
  r_elapsed_us : float;
  r_rate_per_sec : float;
  r_fleet_p50_us : float;
  r_fleet_p99_us : float;
  r_fleet_p999_us : float;
  r_nodes : node_report list;
  r_retransmissions : int;
  r_busy_replies : int;
  r_switch_forwarded : int;
  r_incast_drops : int;
  r_unknown_drops : int;
  r_lookups : int;
  r_leaked_sinks : int;
  r_stuck_callers : int;
  r_events : int;
  r_bottleneck : bottleneck;
}

type artifacts = { a_obs : Obs.Ctx.t; a_spans : Sim.Trace.span list }

let validate spec =
  if spec.s_nodes < 2 then Error "need at least 2 nodes"
  else if spec.s_nodes > Cluster.max_nodes then
    Error (Printf.sprintf "at most %d nodes (station addressing)" Cluster.max_nodes)
  else if spec.s_clients < 1 then Error "need at least 1 client"
  else if spec.s_calls < 1 then Error "need at least 1 call"
  else if spec.s_payload < 0 || spec.s_payload > Ti.get_data_max then
    Error (Printf.sprintf "payload must be 0 to %d bytes" Ti.get_data_max)
  else if not (Float.is_finite spec.s_straggler_speedup && spec.s_straggler_speedup > 0.) then
    Error "straggler speedup must be finite and > 0"
  else if not (Float.is_finite spec.s_switch_latency_us && spec.s_switch_latency_us >= 0.) then
    Error "switch latency must be finite and >= 0"
  else if spec.s_egress_capacity < 1 then Error "egress capacity must be >= 1"
  else
    match Gen.validate spec.s_arrival with
    | Ok _ -> Ok spec
    | Error e -> Error ("arrival: " ^ e)

(* The fleet-wide arrival rate is split evenly over the client slots,
   so [s_clients] scales parallelism without changing offered load. *)
let per_slot_arrival spec =
  let n = float_of_int spec.s_clients in
  match spec.s_arrival with
  | Gen.Poisson { rate_per_sec } -> Gen.Poisson { rate_per_sec = rate_per_sec /. n }
  | Gen.Pareto { alpha; rate_per_sec } -> Gen.Pareto { alpha; rate_per_sec = rate_per_sec /. n }
  | Gen.Closed _ as a -> a

(* Placement: which nodes serve and which nodes host client slots. *)
let placement spec =
  let all = List.init spec.s_nodes (fun i -> i) in
  match spec.s_kind with
  | Incast -> ([ 0 ], List.filter (fun i -> i <> 0) all)
  | Uniform | Straggler -> (all, all)

let role spec i =
  match spec.s_kind with
  | Incast -> if i = 0 then "server" else "clients"
  | Uniform -> "server+clients"
  | Straggler -> if i = spec.s_nodes - 1 then "straggler" else "server+clients"

let snapshot_count snap ~site ~name =
  match Obs.Metrics.Snapshot.find snap ~site ~name with
  | Some (Obs.Metrics.Snapshot.Count n) -> n
  | _ -> 0

let hist_pct h q = if Obs.Metrics.Histogram.count h = 0 then 0. else Obs.Metrics.Histogram.percentile h q

let run ?(trace = false) spec =
  (match validate spec with Ok _ -> () | Error e -> invalid_arg ("Scenario.run: " ^ e));
  let servers, client_nodes = placement spec in
  let config = Hw.Config.default in
  let config_of i =
    if spec.s_kind = Straggler && i = spec.s_nodes - 1 then
      { config with Hw.Config.cpu_speedup = config.Hw.Config.cpu_speedup *. spec.s_straggler_speedup }
    else config
  in
  let cl =
    (* Receive pools sized to the offered concurrency (like a NIC ring
       scaled to fan-in): an incast burst parks in the server's pool and
       drains at CPU 0's interrupt rate instead of being dropped and
       retransmitted into collapse. *)
    Cluster.create ~seed:spec.s_seed ~config ~config_of
      ~switch_latency:(Time.us_f spec.s_switch_latency_us)
      ~egress_capacity:spec.s_egress_capacity
      ~pool_buffers:(max 64 (2 * spec.s_clients))
      ~nodes:spec.s_nodes ()
  in
  let eng = cl.Cluster.cl_eng in
  let tr = Engine.trace eng in
  if trace then Sim.Trace.set_enabled tr true;
  (* Enough parked workers that the worker pool is not the artificial
     first bottleneck under fan-in; Busy replies still appear once the
     fleet genuinely outruns it. *)
  let workers = max 8 (min 128 spec.s_clients) in
  List.iter (fun i -> Cluster.export cl ~node:i ~workers ()) servers;
  (* Per-client-node bindings to every server it may call, made in
     deterministic order. *)
  let bindings = Hashtbl.create 16 in
  (* Datacenter-style retransmission: the paper's 600 ms first timeout
     would leave the fleet idle for most of a run whenever incast costs
     a frame; recover in tens of milliseconds and back off instead.
     The first timeout sits above worst-case incast queueing (64 deep
     at ~0.4 ms of CPU 0 per frame) so a queued call is not re-sent. *)
  let options =
    {
      Rpc.Runtime.retransmit_after = Time.ms 50;
      max_retries = 100;
      backoff = Some { Rpc.Runtime.multiplier = 2.; max_interval = Time.ms 400 };
    }
  in
  List.iter
    (fun n ->
      let targets = List.filter (fun i -> i <> n) servers in
      let targets = if targets = [] then servers else targets in
      Hashtbl.replace bindings n
        (Array.of_list
           (List.map (fun server -> Cluster.bind cl ~client:n ~server ~options ()) targets)))
    client_nodes;
  let issued = ref 0 in
  let completed = ref 0 in
  let failed = ref 0 in
  let in_flight = ref 0 in
  let max_in_flight = ref 0 in
  let issued_from = Array.make spec.s_nodes 0 in
  let gate = Sim.Gate.create eng in
  let finish_maybe () =
    if !issued = spec.s_calls && !in_flight = 0 then Sim.Gate.open_ gate
  in
  let take_ticket node_id =
    if !issued < spec.s_calls then begin
      incr issued;
      incr in_flight;
      issued_from.(node_id) <- issued_from.(node_id) + 1;
      if !in_flight > !max_in_flight then max_in_flight := !in_flight;
      true
    end
    else false
  in
  (* CPU saturation is sampled inside the run at the p90-completion
     instant: a handful of straggler calls sitting in retransmission
     backoff at the end would otherwise dilute a saturated server's
     time-averaged utilization into apparent idleness. *)
  let p90_target = max 1 ((spec.s_calls * 9 + 9) / 10) in
  let busy_sample = ref None in
  let sample_if_p90 () =
    if !completed + !failed = p90_target && !busy_sample = None then begin
      let now = Engine.now eng in
      busy_sample :=
        Some
          (Array.map
             (fun n ->
               ( Machine.average_busy_cpus n.Cluster.nd_machine ~upto:now,
                 Cpu_set.cpu0_utilization (Machine.cpus n.Cluster.nd_machine) ~upto:now ))
             cl.Cluster.cl_nodes)
    end
  in
  let observe node t0 =
    let d = Time.diff (Engine.now eng) t0 in
    Obs.Metrics.Histogram.observe_span node.Cluster.nd_hist d;
    Obs.Metrics.Histogram.observe_span cl.Cluster.cl_fleet_hist d
  in
  let proc =
    if spec.s_payload = 0 then Workload.Driver.Null else Workload.Driver.Get_data spec.s_payload
  in
  let one_call binding client ctx =
    match
      Rpc.Runtime.call binding client ctx ~proc_idx:(Workload.Driver.proc_idx proc)
        ~args:(Workload.Driver.args_of proc)
    with
    | _ -> incr completed
    | exception Rpc.Rpc_error.Rpc _ -> incr failed
  in
  let arrival = per_slot_arrival spec in
  let slots = List.init spec.s_clients (fun k -> k) in
  (* Slot randomness is split off the engine generator in slot order at
     setup, so each slot owns an independent deterministic stream. *)
  let slot_rngs = List.map (fun _ -> Sim.Rng.split (Engine.rng eng)) slots in
  let nodes_arr = Array.of_list client_nodes in
  List.iter2
    (fun slot rng ->
      let node_id = nodes_arr.(slot mod Array.length nodes_arr) in
      let node = Cluster.node cl node_id in
      let binds = Hashtbl.find bindings node_id in
      let pick_binding () =
        if Array.length binds = 1 then binds.(0)
        else binds.(Sim.Rng.int rng (Array.length binds))
      in
      if Gen.is_open_loop arrival then begin
        (* Open loop: this slot is a generator; each arrival spawns an
           independent call thread, whatever the completion state —
           latency runs from the arrival instant.  Activities are pooled
           and reused across calls (like real caller threads): a one-shot
           activity never calls again, so the server would retain every
           result for duplicate suppression until the GC and drain its
           packet pool under sustained load. *)
        let idle_clients = Queue.create () in
        Machine.spawn_thread node.Cluster.nd_machine
          ~name:(Printf.sprintf "fleet-gen-%d" slot)
          (fun () ->
            let rec loop () =
              Engine.delay eng (Time.us_f (Gen.interarrival_us rng arrival));
              if take_ticket node_id then begin
                let binding = pick_binding () in
                let client =
                  match Queue.take_opt idle_clients with
                  | Some c -> c
                  | None -> Rpc.Runtime.new_client node.Cluster.nd_rt
                in
                let t0 = Engine.now eng in
                Machine.spawn_thread node.Cluster.nd_machine
                  ~name:(Printf.sprintf "fleet-call-%d" slot)
                  (fun () ->
                    Cpu_set.with_cpu (Machine.cpus node.Cluster.nd_machine) (fun ctx ->
                        one_call binding client ctx);
                    Queue.push client idle_clients;
                    sample_if_p90 ();
                    observe node t0;
                    decr in_flight;
                    finish_maybe ());
                loop ()
              end
            in
            loop ())
      end
      else
        (* Closed loop: one call at a time per slot, next call issued a
           think time after the previous result. *)
        Machine.spawn_thread node.Cluster.nd_machine
          ~name:(Printf.sprintf "fleet-client-%d" slot)
          (fun () ->
            Cpu_set.with_cpu (Machine.cpus node.Cluster.nd_machine) (fun ctx ->
                let client = Rpc.Runtime.new_client node.Cluster.nd_rt in
                let rec loop () =
                  if take_ticket node_id then begin
                    let binding = pick_binding () in
                    let t0 = Engine.now eng in
                    one_call binding client ctx;
                    sample_if_p90 ();
                    observe node t0;
                    decr in_flight;
                    finish_maybe ();
                    let think = Gen.interarrival_us rng arrival in
                    if think > 0. then
                      Cpu_set.yield_cpu ctx (fun () -> Engine.delay eng (Time.us_f think));
                    loop ()
                  end
                in
                loop ())))
    slots slot_rngs;
  let started_at = Engine.now eng in
  Cluster.run_until_quiet cl gate;
  let finished_at = Engine.now eng in
  if trace then Sim.Trace.set_enabled tr false;
  let elapsed_us = Time.to_us (Time.diff finished_at started_at) in
  let snap = Obs.Metrics.Snapshot.take cl.Cluster.cl_obs.Obs.Ctx.metrics ~at:finished_at in
  let node_reports =
    List.init spec.s_nodes (fun i ->
        let n = Cluster.node cl i in
        let site = n.Cluster.nd_name in
        let busy_cpus, cpu0_util =
          match !busy_sample with
          | Some a -> a.(i)
          | None ->
            ( Machine.average_busy_cpus n.Cluster.nd_machine ~upto:finished_at,
              Cpu_set.cpu0_utilization (Machine.cpus n.Cluster.nd_machine) ~upto:finished_at )
        in
        {
          nr_name = site;
          nr_role = role spec i;
          nr_issued = issued_from.(i);
          nr_served = Rpc.Runtime.calls_served n.Cluster.nd_rt;
          nr_p50_us = hist_pct n.Cluster.nd_hist 0.50;
          nr_p99_us = hist_pct n.Cluster.nd_hist 0.99;
          nr_p999_us = hist_pct n.Cluster.nd_hist 0.999;
          nr_busy_cpus = busy_cpus;
          nr_cpu0_util = cpu0_util;
          nr_interrupts = Nub.Driver.interrupts_taken (Machine.driver n.Cluster.nd_machine);
          nr_rx_lost =
            snapshot_count snap ~site ~name:"deqna.rx_no_buffer"
            + snapshot_count snap ~site ~name:"deqna.rx_overruns";
          nr_pool_exhaustions = snapshot_count snap ~site ~name:"bufpool.exhaustions";
        })
  in
  let sum f = Array.fold_left (fun acc n -> acc + f n) 0 cl.Cluster.cl_nodes in
  let retrans = sum (fun n -> Rpc.Runtime.retransmissions n.Cluster.nd_rt) in
  let busy = sum (fun n -> Rpc.Runtime.busy_replies n.Cluster.nd_rt) in
  let forwarded = Topology.frames_forwarded cl.Cluster.cl_switch in
  let incast_drops = Topology.frames_dropped_incast cl.Cluster.cl_switch in
  (* First-bottleneck attribution: score each candidate resource on the
     busiest server node as a saturation fraction and name the largest
     that crosses the threshold. *)
  let busiest =
    List.fold_left
      (fun acc i ->
        let r = List.nth node_reports i in
        match acc with
        | None -> Some r
        | Some b -> if r.nr_cpu0_util > b.nr_cpu0_util then Some r else acc)
      None servers
  in
  let bottleneck =
    match busiest with
    | None -> Unsaturated
    | Some b ->
      let rx_frames = snapshot_count snap ~site:b.nr_name ~name:"deqna.rx_frames" in
      let frac num den = if den <= 0 then 0. else float_of_int num /. float_of_int den in
      let candidates =
        [
          (Cpu0_interrupts, b.nr_cpu0_util);
          (Rx_buffer_pool, frac b.nr_rx_lost (b.nr_rx_lost + rx_frames));
          (Switch_egress, frac incast_drops (incast_drops + forwarded));
          (Call_table, frac busy (max 1 !issued));
        ]
      in
      let best, score =
        List.fold_left
          (fun (bk, bs) (k, s) -> if s > bs then (k, s) else (bk, bs))
          (Unsaturated, 0.) candidates
      in
      if score >= 0.5 then best else Unsaturated
  in
  let report =
    {
      r_spec = spec;
      r_issued = !issued;
      r_completed = !completed;
      r_failed = !failed;
      r_max_in_flight = !max_in_flight;
      r_elapsed_us = elapsed_us;
      r_rate_per_sec =
        (if elapsed_us > 0. then float_of_int !completed /. (elapsed_us /. 1e6) else 0.);
      r_fleet_p50_us = hist_pct cl.Cluster.cl_fleet_hist 0.50;
      r_fleet_p99_us = hist_pct cl.Cluster.cl_fleet_hist 0.99;
      r_fleet_p999_us = hist_pct cl.Cluster.cl_fleet_hist 0.999;
      r_nodes = node_reports;
      r_retransmissions = retrans;
      r_busy_replies = busy;
      r_switch_forwarded = forwarded;
      r_incast_drops = incast_drops;
      r_unknown_drops = Topology.frames_dropped_unknown cl.Cluster.cl_switch;
      r_lookups = cl.Cluster.cl_binds;
      r_leaked_sinks = Cluster.leaked_sinks cl;
      r_stuck_callers = Cluster.stuck_callers cl;
      r_events = Engine.events_executed eng;
      r_bottleneck = bottleneck;
    }
  in
  let spans =
    if trace then
      List.sort (fun a b -> Time.compare a.Sim.Trace.start_at b.Sim.Trace.start_at) (Sim.Trace.spans tr)
    else []
  in
  (report, { a_obs = cl.Cluster.cl_obs; a_spans = spans })

let node_table r =
  Report.Table.make ~id:"fleet-nodes" ~title:"Per-node tail latency and saturation"
    ~columns:
      [
        "node"; "role"; "issued"; "served"; "p50 us"; "p99 us"; "p99.9 us"; "busy cpus";
        "cpu0 util"; "irqs"; "rx lost"; "pool exh";
      ]
    (List.map
       (fun n ->
         [
           n.nr_name;
           n.nr_role;
           Report.Table.cell_i n.nr_issued;
           Report.Table.cell_i n.nr_served;
           Report.Table.cell_f ~decimals:1 n.nr_p50_us;
           Report.Table.cell_f ~decimals:1 n.nr_p99_us;
           Report.Table.cell_f ~decimals:1 n.nr_p999_us;
           Report.Table.cell_f ~decimals:2 n.nr_busy_cpus;
           Report.Table.cell_f ~decimals:2 n.nr_cpu0_util;
           Report.Table.cell_i n.nr_interrupts;
           Report.Table.cell_i n.nr_rx_lost;
           Report.Table.cell_i n.nr_pool_exhaustions;
         ])
       r.r_nodes)

let render r =
  let b = Buffer.create 2048 in
  let spec = r.r_spec in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "fleet scenario:   %s (%d nodes, %d clients, %d calls)" (kind_to_string spec.s_kind)
    spec.s_nodes spec.s_clients spec.s_calls;
  line "arrival:          %s" (Gen.to_string spec.s_arrival);
  line "seed:             %d   payload: %dB   switch: %.1fus latency, egress cap %d" spec.s_seed
    spec.s_payload spec.s_switch_latency_us spec.s_egress_capacity;
  line "conservation:     issued %d = completed %d + failed %d   (max in flight %d)" r.r_issued
    r.r_completed r.r_failed r.r_max_in_flight;
  line "elapsed:          %.1f us simulated   (%.1f calls/s)" r.r_elapsed_us r.r_rate_per_sec;
  line "fleet latency us: p50 %.1f   p99 %.1f   p99.9 %.1f" r.r_fleet_p50_us r.r_fleet_p99_us
    r.r_fleet_p999_us;
  line "retransmissions:  %d   busy replies: %d" r.r_retransmissions r.r_busy_replies;
  line "switch:           forwarded %d   incast drops %d   unknown drops %d   lookups %d"
    r.r_switch_forwarded r.r_incast_drops r.r_unknown_drops r.r_lookups;
  line "invariants:       leaked sinks %d   stuck callers %d   events %d" r.r_leaked_sinks
    r.r_stuck_callers r.r_events;
  line "bottleneck:       %s" (bottleneck_to_string r.r_bottleneck);
  Buffer.add_string b (Report.Table.render (node_table r));
  Buffer.contents b

let check r =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  if r.r_issued <> r.r_spec.s_calls then
    err "conservation: issued %d <> requested %d" r.r_issued r.r_spec.s_calls;
  if r.r_completed + r.r_failed <> r.r_issued then
    err "conservation: completed %d + failed %d <> issued %d" r.r_completed r.r_failed r.r_issued;
  if r.r_leaked_sinks <> 0 then err "%d fragment sink(s) leaked at quiescence" r.r_leaked_sinks;
  if r.r_stuck_callers <> 0 then err "%d caller(s) still registered at quiescence" r.r_stuck_callers;
  (if not (Gen.is_open_loop r.r_spec.s_arrival) && r.r_max_in_flight > r.r_spec.s_clients then
     err "closed loop exceeded its concurrency bound: %d > %d" r.r_max_in_flight
       r.r_spec.s_clients);
  match !errs with
  | [] -> Ok ()
  | es -> Error (List.rev es)
