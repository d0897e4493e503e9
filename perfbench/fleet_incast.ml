(* fleet-incast: an 8-node fleet where 64 zero-think closed-loop
   clients on nodes 1-7 call Null() on node 0 through the switch — the
   deepest event queue, the most armed retransmit timers and the CPU-0
   interrupt wall.  A fresh cluster per sample of 2000 calls.  The
   fleet drives its own calls, so host latency is taken per sample:
   the sample's host time divided by its calls. *)

module S = Fleet.Scenario

let calls_per_sample = 2000
let warmup_calls = 64

let spec ~seed ~calls =
  { S.default with S.s_nodes = 8; s_clients = 64; s_calls = calls; s_kind = S.Incast; s_seed = seed }

(* Every fleet frame is a minimum-size Null() call, result or ack. *)
let frame_bytes = Rpc.Frames.frame_size Arms.timing ~payload_len:0

let run ~seed ~calls ~traced =
  let t0 = Common.now () in
  let r, art = S.run ~trace:traced (spec ~seed ~calls) in
  let wall = Common.now () -. t0 in
  (* A failed scenario invariant (conservation, leaked sinks, stuck
     callers) fails every call of the sample. *)
  let failed = match S.check r with Ok () -> r.S.r_failed | Error _ -> calls in
  let snap = Obs.Metrics.Snapshot.take art.S.a_obs.Obs.Ctx.metrics ~at:Sim.Time.zero in
  let model = Common.model_counts snap in
  let server = List.hd r.S.r_nodes in
  {
    Common.s_calls = calls;
    s_failed = failed;
    s_wall = wall;
    s_lat_us = [ (0, wall *. 1e6 /. float_of_int calls) ];
    s_events = r.S.r_events;
    s_counts =
      model
      @ [
          ("wire_bytes", List.assoc "frames" model *. float_of_int frame_bytes);
          ("server_cpu0_util_x_calls", server.S.nr_cpu0_util *. float_of_int calls);
          ("retransmissions", float_of_int r.S.r_retransmissions);
          ("busy_rejects", float_of_int r.S.r_busy_replies);
          ("switch_forwarded", float_of_int r.S.r_switch_forwarded);
          ("incast_drops", float_of_int r.S.r_incast_drops);
          ("max_in_flight", float_of_int r.S.r_max_in_flight);
          ("sim_p99_us_x_samples", r.S.r_fleet_p99_us);
          ("journal.dropped", float_of_int (Obs.Journal.dropped art.S.a_obs.Obs.Ctx.journal));
        ];
    s_digest = Digest.to_hex (Digest.string (S.render r));
    s_spans = Lazy.from_val art.S.a_spans;
  }

(* Null() frames rebuilt from the fleet's frame counts: one call frame
   and one result frame of the same shape the runtime sends. *)
let null_frames () =
  let ep st ip = { Rpc.Frames.mac = Net.Mac.of_station st; ip = Net.Ipv4.Addr.of_string ip } in
  let client = ep 2 "16.0.0.2" and server = ep 1 "16.0.0.1" in
  let hdr ptype =
    {
      Rpc.Proto.ptype;
      please_ack = false;
      no_frag_ack = false;
      secured = false;
      activity =
        { Rpc.Proto.Activity.caller_ip = client.Rpc.Frames.ip; caller_space = 1; thread = 1 };
      seq = 1;
      server_space = 1;
      interface_id = Rpc.Idl.interface_id Workload.Test_interface.interface;
      proc_idx = Workload.Test_interface.null_idx;
      frag_idx = 0;
      frag_count = 1;
      data_len = 0;
      checksum = 0;
    }
  in
  let build ~src ~dst ptype =
    Rpc.Frames.build Arms.timing ~src ~dst ~hdr:(hdr ptype) ~payload:Bytes.empty ~payload_pos:0
      ~payload_len:0
  in
  [ build ~src:client ~dst:server Rpc.Proto.Call; build ~src:server ~dst:client Rpc.Proto.Result ]

let create ~seed =
  {
    Harness.classes = [| "null" |];
    setup =
      (fun () ->
        ignore (run ~seed:(Common.derive_seed seed (-1)) ~calls:warmup_calls ~traced:false));
    sample = (fun ~traced k -> run ~seed:(Common.derive_seed seed k) ~calls:calls_per_sample ~traced);
    kernel_input =
      (fun () ->
        (* The frame counts of sample 0 say how many frames a call
           costs; replay that many Null() frames, alternating call and
           result. *)
        let s = run ~seed:(Common.derive_seed seed 0) ~calls:calls_per_sample ~traced:false in
        let per_call = Common.count "frames" s /. float_of_int s.Common.s_calls in
        let pair = null_frames () in
        let n = max 2 (int_of_float (Float.round (per_call *. 100.))) in
        {
          Arms.frames = List.init n (fun i -> List.nth pair (i land 1));
          frame_calls = 100;
          shapes =
            [
              {
                Arms.proc = Workload.Test_interface.interface.Rpc.Idl.procs.(Workload.Test_interface.null_idx);
                call_args = [];
                result_args = [];
              };
            ];
        });
    teardown = ignore;
  }
