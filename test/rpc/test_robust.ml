(* Robustness of the runtime internals: retained-result GC, packet-pool
   exhaustion, the Busy protocol for slow servers, fragment-boundary
   payload sizes, streaming under loss, and machine restart. *)

module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal
module Runtime = Rpc.Runtime
module Binder = Rpc.Binder
module World = Workload.World
module Driver = Workload.Driver

let v_int n = Marshal.V_int (Int32.of_int n)

let run_caller (w : World.t) gate f =
  Machine.spawn_thread w.World.caller ~name:"robust-caller" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
          let client = Runtime.new_client w.World.caller_rt in
          f client ctx);
      Sim.Gate.open_ gate)

let test_retained_result_gc () =
  let w = World.create () in
  let binding = World.test_binding w () in
  let gate = Sim.Gate.create w.World.eng in
  let in_use_after_call = ref 0 in
  run_caller w gate (fun client ctx ->
      ignore
        (Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.null_idx ~args:[]);
      (* Let the transient buffers settle, then snapshot: the retained
         result at the server holds one pool buffer. *)
      Cpu_set.yield_cpu ctx (fun () -> Engine.delay w.World.eng (Time.ms 50));
      in_use_after_call := Nub.Bufpool.in_use (Machine.pool w.World.server));
  World.run_until_quiet w gate;
  Alcotest.(check bool) "server retains a result buffer" true
    (!in_use_after_call > 16 (* the driver's receive credits *));
  Alcotest.(check int) "one activity tracked" 1 (Runtime.server_activities w.World.server_rt);
  (* After the retain GC window (5 s), the buffer must return. *)
  Engine.run_until w.World.eng (Time.add (Engine.now w.World.eng) (Time.sec 6));
  Alcotest.(check int) "retained buffer reclaimed" 16
    (Nub.Bufpool.in_use (Machine.pool w.World.server))

let test_pool_exhaustion_recovers () =
  (* A machine with a tiny pool: the driver takes 16 receive credits,
     leaving little for callers; concurrent MaxArg callers must block
     on allocation and still all complete. *)
  let eng = Engine.create ~seed:9 () in
  let link = Hw.Ether_link.create eng ~mbps:10. in
  let caller =
    Machine.create eng ~name:"caller" ~config:Hw.Config.default ~link ~station:1
      ~ip:(Net.Ipv4.Addr.of_string "16.0.0.1") ~pool_buffers:20 ()
  in
  let server =
    Machine.create eng ~name:"server" ~config:Hw.Config.default ~link ~station:2
      ~ip:(Net.Ipv4.Addr.of_string "16.0.0.2") ()
  in
  let caller_rt = Runtime.create (Rpc.Node.create caller) ~space:1 in
  let server_rt = Runtime.create (Rpc.Node.create server) ~space:1 in
  let binder = Binder.create () in
  Binder.export binder server_rt Workload.Test_interface.interface
    ~impls:(Workload.Test_interface.impls ())
    ~workers:8;
  let binding = Binder.import binder caller_rt ~name:"Test" ~version:1 () in
  let gate = Sim.Gate.create eng in
  let done_count = ref 0 in
  let ok = ref 0 in
  let n_threads = 6 in
  for _ = 1 to n_threads do
    Machine.spawn_thread caller ~name:"t" (fun () ->
        Cpu_set.with_cpu (Machine.cpus caller) (fun ctx ->
            let client = Runtime.new_client caller_rt in
            for _ = 1 to 5 do
              let r =
                Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.max_arg_idx
                  ~args:[ Marshal.V_bytes (Workload.Test_interface.pattern 1440) ]
              in
              if r = [] then incr ok
            done);
        incr done_count;
        if !done_count = n_threads then Sim.Gate.open_ gate)
  done;
  Engine.run_while eng (fun () -> not (Sim.Gate.is_open gate));
  Alcotest.(check bool) "completed" true (Sim.Gate.is_open gate);
  Alcotest.(check int) "all calls correct" 30 !ok;
  Alcotest.(check bool) "pool was actually contended" true
    (Nub.Bufpool.exhaustions (Machine.pool caller) > 0)

let slow_intf =
  Idl.interface ~name:"Slow" ~version:1
    [ Idl.proc "crunch" [ Idl.arg "n" Idl.T_int; Idl.arg ~mode:Idl.Var_out "r" Idl.T_int ] ]

let test_busy_protocol () =
  (* The server takes 300 ms; the caller retransmits every 40 ms with
     please_ack and must receive Busy replies instead of triggering
     re-execution or failure. *)
  let w = World.create ~export_test:false () in
  let executions = ref 0 in
  Binder.export w.World.binder w.World.server_rt slow_intf
    ~impls:
      [|
        (fun ctx args ->
          incr executions;
          Cpu_set.charge ctx ~cat:"runtime" ~label:"crunch body" (Time.ms 300);
          match args with
          | [ Marshal.V_int n; _ ] -> [ Marshal.V_int (Int32.mul n 2l) ]
          | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "crunch"));
      |]
    ~workers:2;
  let binding =
    Binder.import w.World.binder w.World.caller_rt ~name:"Slow" ~version:1
      ~options:{ Runtime.retransmit_after = Time.ms 40; max_retries = 30; backoff = None }
      ()
  in
  let gate = Sim.Gate.create w.World.eng in
  let result = ref [] in
  run_caller w gate (fun client ctx ->
      result := Runtime.call_by_name binding client ctx ~proc:"crunch" ~args:[ v_int 21; v_int 0 ]);
  World.run_until_quiet w gate;
  Alcotest.(check bool) "correct result after waiting" true (!result = [ v_int 42 ]);
  Alcotest.(check int) "executed exactly once" 1 !executions;
  Alcotest.(check bool) "busy replies sent" true (Runtime.busy_replies w.World.server_rt > 0);
  Alcotest.(check bool) "caller retransmitted" true
    (Runtime.retransmissions w.World.caller_rt > 0)

let test_fragment_boundaries () =
  let w = World.create () in
  let binding = World.test_binding w () in
  let gate = Sim.Gate.create w.World.eng in
  let failures = ref [] in
  run_caller w gate (fun client ctx ->
      List.iter
        (fun n ->
          match
            Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.get_data_idx
              ~args:[ v_int n; Marshal.V_bytes Bytes.empty ]
          with
          | [ Marshal.V_bytes b ]
            when Bytes.length b = n && Bytes.equal b (Workload.Test_interface.pattern n) ->
            ()
          | _ -> failures := n :: !failures
          | exception e ->
            ignore e;
            failures := n :: !failures)
        (* result payload sizes around the 1440-byte fragment edge:
           (4+2)-byte prefix means the on-wire result is n + small *)
        [ 0; 1; 1433; 1434; 1435; 1440; 1441; 2867; 2868; 2869; 5000 ])
      ;
  World.run_until_quiet w gate;
  Alcotest.(check (list int)) "all boundary sizes roundtrip" [] !failures

let test_streaming_under_loss () =
  let config = { Hw.Config.default with Hw.Config.streaming_results = true } in
  let w = World.create ~caller_config:config ~server_config:config () in
  let binding =
    World.test_binding w ~options:{ Runtime.retransmit_after = Time.ms 30; max_retries = 50; backoff = None } ()
  in
  let gate = Sim.Gate.create w.World.eng in
  let ok = ref false in
  run_caller w gate (fun client ctx ->
      (* Drop one mid-stream fragment of the first response blast. *)
      let dropped = ref false in
      let seen_big = ref 0 in
      Hw.Ether_link.set_fault_injector w.World.link
        (Some
           (fun f ->
             if Bytes.length f > 1000 then begin
               incr seen_big;
               if !seen_big = 3 && not !dropped then begin
                 dropped := true;
                 Hw.Ether_link.Drop
               end
               else Hw.Ether_link.Deliver
             end
             else Hw.Ether_link.Deliver));
      match
        Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.get_data_idx
          ~args:[ v_int 10_000; Marshal.V_bytes Bytes.empty ]
      with
      | [ Marshal.V_bytes b ] ->
        ok := Bytes.equal b (Workload.Test_interface.pattern 10_000)
      | _ -> ());
  World.run_until_quiet w gate;
  Alcotest.(check bool) "streamed transfer recovered from loss" true !ok

let test_traditional_demux_correctness () =
  (* The §3.2 ablation path must be functionally identical: calls
     complete (even under loss), only slower. *)
  let config = { Hw.Config.default with Hw.Config.traditional_demux = true } in
  let w = World.create ~caller_config:config ~server_config:config () in
  let binding =
    World.test_binding w ~options:{ Runtime.retransmit_after = Time.ms 25; max_retries = 60; backoff = None } ()
  in
  let gate = Sim.Gate.create w.World.eng in
  let ok = ref 0 in
  run_caller w gate (fun client ctx ->
      let rng = Sim.Rng.create ~seed:77 in
      Hw.Ether_link.set_fault_injector w.World.link
        (Some
           (fun _ -> if Sim.Rng.bool rng ~p:0.1 then Hw.Ether_link.Drop else Hw.Ether_link.Deliver));
      for _ = 1 to 10 do
        match
          Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.max_arg_idx
            ~args:[ Marshal.V_bytes (Workload.Test_interface.pattern 1440) ]
        with
        | [] -> incr ok
        | _ -> ()
      done);
  World.run_until_quiet w gate;
  Alcotest.(check int) "all calls correct through the datalink path" 10 !ok;
  Alcotest.(check bool) "every frame went via the datalink thread" true
    (Nub.Driver.frames_to_datalink (Machine.driver w.World.server)
     = Nub.Driver.frames_received (Machine.driver w.World.server))

let test_server_restart () =
  let w = World.create () in
  let binding =
    World.test_binding w ~options:{ Runtime.retransmit_after = Time.ms 20; max_retries = 4; backoff = None } ()
  in
  let gate = Sim.Gate.create w.World.eng in
  let phases = ref [] in
  run_caller w gate (fun client ctx ->
      let null () =
        match
          Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.null_idx ~args:[]
        with
        | [] -> `Ok
        | _ -> `Bad
        | exception Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Call_failed _) -> `Failed
      in
      phases := [ null () ];
      Machine.power_off w.World.server;
      phases := null () :: !phases;
      Machine.power_on w.World.server;
      phases := null () :: !phases);
  World.run_until_quiet w gate;
  Alcotest.(check bool) "up, down, up again" true (List.rev !phases = [ `Ok; `Failed; `Ok ])

(* {2 Hand-crafted adversarial packets}

   These regression tests speak the wire protocol directly — forged
   activities, poisoned fragment headers, duplicates of reclaimed
   results — the attacks the simulation-testing harness first found. *)

let forged_activity (w : World.t) ~thread =
  {
    Rpc.Proto.Activity.caller_ip = (Rpc.Node.endpoint w.World.caller_node).Rpc.Frames.ip;
    caller_space = 1;
    thread;
  }

(* [data_len] and [checksum] are overwritten by [Frames.build]. *)
let forged_call ~act ~seq ~frag_idx ~frag_count =
  {
    Rpc.Proto.ptype = Rpc.Proto.Call;
    please_ack = false;
    no_frag_ack = false;
    secured = false;
    activity = act;
    seq;
    server_space = 1;
    interface_id = Idl.interface_id Workload.Test_interface.interface;
    proc_idx = Workload.Test_interface.null_idx;
    frag_idx;
    frag_count;
    data_len = 0;
    checksum = 0;
  }

let raw_send (w : World.t) ctx hdr =
  Rpc.Node.send w.World.caller_node ~ctx ~dst:(Rpc.Node.endpoint w.World.server_node) ~hdr
    ~payload:Bytes.empty ~payload_pos:0 ~payload_len:0

let pause (w : World.t) ctx ms = Cpu_set.yield_cpu ctx (fun () -> Engine.delay w.World.eng (Time.ms ms))

let test_malformed_call_fragments () =
  (* Pre-fix, the out-of-range index was stored blindly: the collector's
     fragment table reached [frag_count] entries with fragment 1 still
     missing, reassembly raised an uncaught [Not_found], killed the
     worker and leaked its fragment sink.  Post-fix the poison fragments
     are rejected and the call completes from the genuine ones. *)
  let w = World.create () in
  let binding = World.test_binding w () in
  let gate = Sim.Gate.create w.World.eng in
  let act = forged_activity w ~thread:901 in
  let served = ref false in
  run_caller w gate (fun client ctx ->
      let send ~frag_idx ~frag_count =
        raw_send w ctx (forged_call ~act ~seq:1 ~frag_idx ~frag_count)
      in
      (* Open a two-fragment call, then poison the collector.  Each
         poison packet is valid in isolation (frag_idx < frag_count, so
         it survives Proto.decode) but inconsistent with fragment 0. *)
      send ~frag_idx:0 ~frag_count:2;
      pause w ctx 2;
      send ~frag_idx:7 ~frag_count:8 (* index out of range for this call *);
      pause w ctx 2;
      send ~frag_idx:1 ~frag_count:5 (* count disagrees with fragment 0 *);
      pause w ctx 2;
      send ~frag_idx:1 ~frag_count:2 (* the genuine closing fragment *);
      pause w ctx 10;
      (* The worker pool must have survived to serve real traffic. *)
      served :=
        Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.null_idx ~args:[] = []);
  World.run_until_quiet w gate;
  Alcotest.(check bool) "server still serves after poisoned fragments" true !served;
  Alcotest.(check int) "no leaked fragment sink" 0 (Rpc.Node.fragment_sinks w.World.server_node);
  (* Both retained results (forged call + real call) reclaimed. *)
  Engine.run_until w.World.eng (Time.add (Engine.now w.World.eng) (Time.sec 6));
  Alcotest.(check int) "server pool back to baseline" 16
    (Nub.Bufpool.in_use (Machine.pool w.World.server))

let test_result_fragment_validation () =
  (* A rogue server answers a call with poisoned Result fragments: an
     out-of-range index and a fragment count disagreeing with fragment
     0.  Pre-fix the bogus index completed the count and reassembly
     failed with Protocol_violation; post-fix the caller drops the
     poison and completes from the consistent fragments. *)
  let w = World.create () in
  let rogue, rogue_node, _rogue_rt =
    World.add_machine w ~name:"rogue" ~config:Hw.Config.default ~station:3 ~ip:"16.0.0.3"
  in
  let pool = Rpc.Node.serve_space rogue_node ~space:9 in
  Machine.spawn_thread rogue ~name:"rogue-server" (fun () ->
      Cpu_set.with_cpu (Machine.cpus rogue) (fun ctx ->
          (* Take the call from space 9's pool, as a server thread would. *)
          let d = Nub.Waiter.Pool.next pool (Machine.new_waiter rogue) ctx in
          let h = d.Rpc.Node.d_hdr in
          let reply ~frag_idx ~frag_count =
            Rpc.Node.send rogue_node ~ctx ~dst:d.Rpc.Node.d_src
              ~hdr:
                { h with Rpc.Proto.ptype = Rpc.Proto.Result; please_ack = false; frag_idx; frag_count }
              ~payload:Bytes.empty ~payload_pos:0 ~payload_len:0
          in
          (* Each poison fragment is valid in isolation (it survives
             Proto.decode) but inconsistent with fragment 0. *)
          reply ~frag_idx:0 ~frag_count:2;
          pause w ctx 2;
          reply ~frag_idx:9 ~frag_count:10 (* index out of range for this result *);
          pause w ctx 2;
          reply ~frag_idx:1 ~frag_count:7 (* count disagrees with fragment 0 *);
          pause w ctx 2;
          reply ~frag_idx:1 ~frag_count:2 (* the genuine closing fragment *)));
  let gate = Sim.Gate.create w.World.eng in
  let outs = ref None in
  run_caller w gate (fun client ctx ->
      let binding =
        Runtime.bind_ether ~dst:(Rpc.Node.endpoint rogue_node) ~server_space:9
          Workload.Test_interface.interface
          ~options:{ Runtime.retransmit_after = Time.ms 50; max_retries = 10; backoff = None }
      in
      outs :=
        Some (Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.null_idx ~args:[]));
  World.run_until_quiet w gate;
  Alcotest.(check bool) "call completed despite forged fragments" true (!outs = Some []);
  Alcotest.(check int) "caller leaked no registration" 0
    (Rpc.Node.outstanding_callers w.World.caller_node)

let test_retained_gc_races () =
  (* The three-way race over a retained result: a duplicate call must be
     answered from it; the activity's next call reclaims it while the
     5 s GC timer from the previous call is still pending (the stale
     timer must not double-free); and a duplicate of the new call right
     after must still find the fresh retained reply. *)
  let w = World.create () in
  let gate = Sim.Gate.create w.World.eng in
  let act = forged_activity w ~thread:902 in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 4 in
  Runtime.set_execution_probe w.World.server_rt
    (Some
       (fun a seq ->
         if a = act then
           Hashtbl.replace execs seq (1 + Option.value ~default:0 (Hashtbl.find_opt execs seq))));
  let dups0 = Runtime.duplicates_suppressed w.World.server_rt in
  let dups_after_first = ref 0 in
  let got_reply = ref false in
  run_caller w gate (fun _client ctx ->
      let send seq = raw_send w ctx (forged_call ~act ~seq ~frag_idx:0 ~frag_count:1) in
      send 1;
      pause w ctx 100;
      send 1 (* duplicate: answered from the retained result *);
      pause w ctx 10;
      dups_after_first := Runtime.duplicates_suppressed w.World.server_rt - dups0;
      (* Race the next call against seq 1's 5 s retain-GC timer. *)
      pause w ctx 4800;
      send 2 (* reclaims seq 1's result, executes, retains anew *);
      pause w ctx 400 (* the stale seq-1 timer fires in here: must be a no-op *);
      (* The duplicate's resent Result must actually come back. *)
      let waiter = Machine.new_waiter w.World.caller in
      Rpc.Node.register_caller w.World.caller_node act waiter;
      send 2;
      (match Nub.Waiter.wait_timeout waiter ctx ~timeout:(Time.ms 100) with
      | Some d -> got_reply := d.Rpc.Node.d_hdr.Rpc.Proto.ptype = Rpc.Proto.Result
      | None -> ());
      Rpc.Node.unregister_caller w.World.caller_node act);
  World.run_until_quiet w gate;
  Alcotest.(check int) "first duplicate answered from the retained result" 1 !dups_after_first;
  Alcotest.(check bool) "retained reply not lost across the generation bump" true !got_reply;
  Alcotest.(check int) "each sequence executed exactly once" 1
    (Hashtbl.fold (fun _ n acc -> max n acc) execs 0);
  Alcotest.(check int) "both sequences reached the implementation" 2 (Hashtbl.length execs);
  (* No double-free from the stale timer, and seq 2's own GC reclaims
     its retained buffer: the pool returns to its 16 receive credits. *)
  Engine.run_until w.World.eng (Time.add (Engine.now w.World.eng) (Time.sec 6));
  Alcotest.(check int) "server pool back to baseline" 16
    (Nub.Bufpool.in_use (Machine.pool w.World.server))

let test_duplicate_after_gc_counts_nothing () =
  (* Pre-fix, a duplicate arriving after the retain GC had reclaimed the
     result still bumped the duplicate counter and journalled a
     Retransmit even though no packet went out. *)
  let w = World.create () in
  let gate = Sim.Gate.create w.World.eng in
  let act = forged_activity w ~thread:903 in
  let dups_after_gc = ref (-1) in
  run_caller w gate (fun _client ctx ->
      let send seq = raw_send w ctx (forged_call ~act ~seq ~frag_idx:0 ~frag_count:1) in
      send 1;
      (* Let the 5 s retain GC reclaim the result... *)
      pause w ctx 6000;
      let dups0 = Runtime.duplicates_suppressed w.World.server_rt in
      send 1 (* ...then duplicate it: nothing retained, nothing sent *);
      pause w ctx 10;
      dups_after_gc := Runtime.duplicates_suppressed w.World.server_rt - dups0);
  World.run_until_quiet w gate;
  Alcotest.(check int) "no phantom retransmission counted" 0 !dups_after_gc;
  Alcotest.(check int) "activity still tracked" 1 (Runtime.server_activities w.World.server_rt);
  Alcotest.(check int) "server pool back to baseline" 16
    (Nub.Bufpool.in_use (Machine.pool w.World.server))

let test_abandoned_transfer_retained () =
  (* Every caller->server Ack is lost, so the server's stop-and-wait
     result transfer never gets past fragment 0 and is abandoned.  The
     abandoned transfer must still become the retained result: the
     caller's next retransmission then receives every fragment.  Pre-fix
     the server forgot the call, the retransmission started it again,
     and the one GetData executed 9 times in 60 s without returning. *)
  let w = World.create () in
  let tmg = Machine.timing w.World.server in
  let caller_ip = Machine.ip w.World.caller in
  Hw.Ether_link.set_fault_injector w.World.link
    (Some
       (fun frame ->
         match Rpc.Frames.parse tmg frame with
         | Ok { Rpc.Frames.p_hdr = { Rpc.Proto.ptype = Rpc.Proto.Ack; _ }; p_src; _ }
           when Net.Ipv4.Addr.equal p_src.Rpc.Frames.ip caller_ip ->
           Hw.Ether_link.Drop
         | _ -> Hw.Ether_link.Deliver));
  let executions = ref 0 in
  Runtime.set_execution_probe w.World.server_rt (Some (fun _ _ -> incr executions));
  let binding = World.test_binding w () in
  let gate = Sim.Gate.create w.World.eng in
  let result = ref None in
  run_caller w gate (fun client ctx ->
      result :=
        Some
          (Runtime.call binding client ctx ~proc_idx:Workload.Test_interface.get_data_idx
             ~args:[ v_int 6000; Marshal.V_bytes Bytes.empty ]));
  (try World.run_until_quiet ~limit:(Time.sec 60) w gate with Failure _ -> ());
  Alcotest.(check int) "GetData executed exactly once" 1 !executions;
  match !result with
  | Some [ Marshal.V_bytes b ] ->
    Alcotest.(check bool) "the call returned the 6000-byte pattern" true
      (Bytes.equal b (Workload.Test_interface.pattern 6000))
  | Some _ -> Alcotest.fail "GetData: unexpected result shape"
  | None -> Alcotest.fail "the call never returned"

let suite =
  [
    Alcotest.test_case "retained result GC" `Quick test_retained_result_gc;
    Alcotest.test_case "pool exhaustion recovers" `Quick test_pool_exhaustion_recovers;
    Alcotest.test_case "busy protocol for slow servers" `Quick test_busy_protocol;
    Alcotest.test_case "fragment boundary sizes" `Quick test_fragment_boundaries;
    Alcotest.test_case "streaming under loss" `Quick test_streaming_under_loss;
    Alcotest.test_case "traditional demux correctness" `Quick test_traditional_demux_correctness;
    Alcotest.test_case "server restart" `Quick test_server_restart;
    Alcotest.test_case "malformed call fragments" `Quick test_malformed_call_fragments;
    Alcotest.test_case "result fragment validation" `Quick test_result_fragment_validation;
    Alcotest.test_case "retained-result GC races" `Quick test_retained_gc_races;
    Alcotest.test_case "duplicate after GC counts nothing" `Quick
      test_duplicate_after_gc_counts_nothing;
    Alcotest.test_case "abandoned result transfer is retained" `Quick
      test_abandoned_transfer_retained;
  ]
