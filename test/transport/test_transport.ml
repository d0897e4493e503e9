(* Transport conformance: the same obligations checked against every
   backend — the simulated ether, the same-address-space shared-memory
   path, and the real loopback UDP socket.  Round trips must complete,
   multi-packet payloads must reassemble, lost packets must be
   retransmitted through, and malformed frames (one shared mutation
   corpus) must be rejected by the frame parser, never crash a
   receiver.  First, the binder's placement rule picks the transport.

   Socket cases skip (not fail) where the environment has no loopback
   sockets. *)

module Driver = Workload.Driver
module World = Workload.World
module Ti = Workload.Test_interface
module Us = Realnet.Udp_socket

let sim_transports : (string * [ `Auto | `Local | `Decnet ]) list =
  [ ("sim", `Auto); ("local", `Local) ]

(* {1 The placement rule}

   Every pairing of placement and requested transport, one fresh world
   each: the binding's transport is read from what one call moved —
   nothing on the wire is shared memory, frames without DECNet segments
   are the packet exchange, segments are a session. *)

let probe_intf = Rpc.Idl.interface ~name:"Probe" ~version:1 [ Rpc.Idl.proc "null" [] ]

let bound_transport ~same_machine transport =
  let w = World.create ~idle_load:false ~export_test:false () in
  let server =
    if same_machine then Rpc.Runtime.create w.World.caller_node ~space:2 else w.World.server_rt
  in
  Rpc.Binder.export w.World.binder server probe_intf ~impls:[| (fun _ _ -> []) |] ~workers:1;
  match
    Rpc.Binder.import w.World.binder w.World.caller_rt ~name:"Probe" ~version:1 ~transport ()
  with
  | exception Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Unbound_interface _) -> "unbound"
  | binding ->
    let gate = Sim.Gate.create w.World.eng in
    Nub.Machine.spawn_thread w.World.caller ~name:"probe" (fun () ->
        Hw.Cpu_set.with_cpu (Nub.Machine.cpus w.World.caller) (fun ctx ->
            let client = Rpc.Runtime.new_client w.World.caller_rt in
            ignore (Rpc.Runtime.call binding client ctx ~proc_idx:0 ~args:[]));
        Sim.Gate.open_ gate);
    World.run_until_quiet w gate;
    let frames = Hw.Ether_link.frames_carried w.World.link in
    let segments =
      Rpc.Decnet.segments_sent (Rpc.Binder.decnet_endpoint w.World.binder w.World.caller_node)
    in
    (match (Rpc.Runtime.is_local binding, frames > 0, segments > 0) with
    | true, false, false -> "shared memory"
    | false, true, false -> "packet exchange"
    | false, true, true -> "session"
    | _ -> Printf.sprintf "inconsistent (%d frames, %d segments)" frames segments)

let test_placement_rule () =
  List.iter
    (fun (same_machine, transport, name, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s server, %s" (if same_machine then "same-machine" else "remote") name)
        expected
        (bound_transport ~same_machine transport))
    [
      (true, `Auto, "auto", "shared memory");
      (true, `Local, "local", "shared memory");
      (true, `Decnet, "decnet", "shared memory");
      (false, `Auto, "auto", "packet exchange");
      (false, `Local, "local", "unbound");
      (false, `Decnet, "decnet", "session");
    ]

(* {1 Round trips and reassembly through the simulated runtime} *)

let test_roundtrip transport () =
  let w = World.create ~idle_load:false () in
  let o = Driver.run w ~transport ~threads:1 ~calls:20 ~proc:Driver.Null () in
  Alcotest.(check int) "all null calls completed" 20 (o.Driver.calls - o.Driver.failed);
  let w = World.create ~idle_load:false () in
  let o = Driver.run w ~transport ~threads:1 ~calls:10 ~proc:Driver.Max_arg () in
  Alcotest.(check int) "all maxarg calls completed" 10 (o.Driver.calls - o.Driver.failed);
  Alcotest.(check int) "no retransmissions on a clean wire" 0 o.Driver.retransmissions

let test_reassembly transport () =
  (* GetData(6000) needs a multi-fragment result; the shared-memory
     path hands the value across without fragmentation — both must
     deliver the same outcome. *)
  let w = World.create ~idle_load:false () in
  let o = Driver.run w ~transport ~threads:1 ~calls:5 ~proc:(Driver.Get_data 6000) () in
  Alcotest.(check int) "all bulk calls completed" 5 (o.Driver.calls - o.Driver.failed)

let test_retransmit_sim () =
  let w = World.create ~idle_load:false () in
  let rng = Sim.Engine.rng w.World.eng in
  Hw.Ether_link.set_fault_injector w.World.link
    (Some
       (fun _ ->
         if Sim.Rng.bool rng ~p:0.2 then Hw.Ether_link.Drop else Hw.Ether_link.Deliver));
  let options =
    { Rpc.Runtime.retransmit_after = Sim.Time.ms 50; max_retries = 100; backoff = None }
  in
  let o = Driver.run w ~options ~threads:1 ~calls:30 ~proc:Driver.Null () in
  Alcotest.(check int) "all calls completed despite 20% loss" 30 (o.Driver.calls - o.Driver.failed);
  Alcotest.(check bool) "losses forced retransmissions" true (o.Driver.retransmissions > 0)

(* {1 The shared malformed-frame corpus}

   One valid frame, mutated: truncations at representative lengths and
   bit flips at offsets the IP or UDP checksum covers.  Every backend's
   receive side runs Frames.parse, so every mutant must be rejected —
   here directly, and below through a real socket. *)

let valid_frame tmg =
  let payload = Ti.pattern 64 in
  let hdr =
    {
      Rpc.Proto.ptype = Rpc.Proto.Call;
      please_ack = false;
      no_frag_ack = false;
      secured = false;
      activity =
        {
          Rpc.Proto.Activity.caller_ip = Us.caller_endpoint.Rpc.Frames.ip;
          caller_space = 1;
          thread = 1;
        };
      seq = 1;
      server_space = 1;
      interface_id = Rpc.Idl.interface_id Ti.interface;
      proc_idx = Ti.null_idx;
      frag_idx = 0;
      frag_count = 1;
      data_len = 0;
      checksum = 0;
    }
  in
  Rpc.Frames.build tmg ~src:Us.caller_endpoint ~dst:Us.server_endpoint ~hdr ~payload
    ~payload_pos:0 ~payload_len:64

let mutants_of frame =
  let n = Bytes.length frame in
  let truncations =
    List.filter_map
      (fun len -> if len < n then Some (Bytes.sub frame 0 len) else None)
      [ 0; 7; 13; 14; 33; 34; 41; 42; 73; n - 1 ]
  in
  (* Flips beyond offset 14 sit under the IP or UDP checksum. *)
  let flips =
    List.map
      (fun off ->
        let b = Bytes.copy frame in
        Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
        b)
      [ 14; 20; 25; 34; 40; 42; 60; n - 1 ]
  in
  truncations @ flips

let corpus tmg =
  let frame = valid_frame tmg in
  (frame, mutants_of frame)

let test_malformed_corpus () =
  let tmg = Us.timing () in
  let frame, mutants = corpus tmg in
  (match Rpc.Frames.parse tmg frame with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the valid frame must parse: %s" e);
  List.iteri
    (fun i m ->
      match Rpc.Frames.parse tmg m with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "mutant %d (len %d) was accepted" i (Bytes.length m))
    mutants

(* {1 The same obligations over a 3-node fleet binding}

   The pairwise cases above pin the transport between two fixed
   machines.  A fleet binding goes further: the client binds to server
   nodes through the cluster's binder and the frames cross a
   store-and-forward switch.  Round trips, multi-fragment reassembly
   and the shared mutation corpus must all hold unchanged. *)

module Fc = Fleet.Cluster

(* A valid Call frame addressed from the fleet's client node to its
   first server, built with the same encoder the runtimes use — the
   fleet twin of [valid_frame]. *)
let fleet_frame cl =
  let machine i = (Fc.node cl i).Fc.nd_machine in
  let ep i =
    { Rpc.Frames.mac = Nub.Machine.mac (machine i); ip = Nub.Machine.ip (machine i) }
  in
  let payload = Ti.pattern 64 in
  let hdr =
    {
      Rpc.Proto.ptype = Rpc.Proto.Call;
      please_ack = false;
      no_frag_ack = false;
      secured = false;
      activity =
        {
          Rpc.Proto.Activity.caller_ip = (ep 2).Rpc.Frames.ip;
          caller_space = 1;
          thread = 1;
        };
      seq = 1;
      server_space = 1;
      interface_id = Rpc.Idl.interface_id Ti.interface;
      proc_idx = Ti.null_idx;
      frag_idx = 0;
      frag_count = 1;
      data_len = 0;
      checksum = 0;
    }
  in
  Rpc.Frames.build
    (Nub.Machine.timing (machine 0))
    ~src:(ep 2) ~dst:(ep 0) ~hdr ~payload ~payload_pos:0 ~payload_len:64

let test_fleet_binding () =
  let cl = Fc.create ~nodes:3 () in
  Fc.export cl ~node:0 ();
  Fc.export cl ~node:1 ();
  let alpha = Fc.bind cl ~client:2 ~server:0 () in
  let beta = Fc.bind cl ~client:2 ~server:1 () in
  let client = Fc.node cl 2 in
  let gate = Sim.Gate.create cl.Fc.cl_eng in
  let len = 6000 in
  Nub.Machine.spawn_thread client.Fc.nd_machine ~name:"fleet-conformance" (fun () ->
      Hw.Cpu_set.with_cpu (Nub.Machine.cpus client.Fc.nd_machine) (fun ctx ->
          let act = Rpc.Runtime.new_client client.Fc.nd_rt in
          for _ = 1 to 10 do
            ignore
              (Rpc.Runtime.call alpha act ctx ~proc_idx:Ti.null_idx ~args:[])
          done;
          match
            Rpc.Runtime.call beta act ctx ~proc_idx:Ti.get_data_idx
              ~args:
                [ Rpc.Marshal.V_int (Int32.of_int len); Rpc.Marshal.V_bytes Bytes.empty ]
          with
          | [ _; Rpc.Marshal.V_bytes b ] | [ Rpc.Marshal.V_bytes b ] ->
            Alcotest.(check int) "multi-fragment result crossed the switch" len
              (Bytes.length b);
            Alcotest.(check bool) "reassembled bytes are the pattern" true
              (Bytes.equal b (Ti.pattern len))
          | _ -> Alcotest.fail "GetData over the fleet: unexpected result shape");
      Sim.Gate.open_ gate);
  Fc.run_until_quiet cl gate;
  Alcotest.(check int) "two binds" 2 cl.Fc.cl_binds;
  Alcotest.(check bool) "the switch forwarded the conversation" true
    (Fleet.Topology.frames_forwarded cl.Fc.cl_switch > 0);
  Alcotest.(check int) "no unknown-MAC drops" 0
    (Fleet.Topology.frames_dropped_unknown cl.Fc.cl_switch);
  Alcotest.(check int) "no leaked fragment sinks" 0 (Fc.leaked_sinks cl);
  Alcotest.(check int) "no stuck callers" 0 (Fc.stuck_callers cl)

let test_fleet_malformed () =
  let cl = Fc.create ~nodes:3 () in
  Fc.export cl ~node:0 ();
  let binding = Fc.bind cl ~client:2 ~server:0 () in
  let server = Fc.node cl 0 in
  let client = Fc.node cl 2 in
  let frame = fleet_frame cl in
  let mutants = mutants_of frame in
  let tmg = Nub.Machine.timing server.Fc.nd_machine in
  (match Rpc.Frames.parse tmg frame with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the fleet frame must parse: %s" e);
  List.iteri
    (fun i m ->
      match Rpc.Frames.parse tmg m with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "fleet mutant %d (len %d) was accepted" i (Bytes.length m))
    mutants;
  (* And through the real receive path: every mutant long enough to be
     a legal Ethernet frame goes onto the client's wire, crosses the
     switch, and must be rejected by the server — which then still
     serves the valid call that follows them. *)
  let injectable =
    List.filter (fun m -> Bytes.length m >= Net.Ethernet.header_size) mutants
  in
  let gate = Sim.Gate.create cl.Fc.cl_eng in
  Nub.Machine.spawn_thread client.Fc.nd_machine ~name:"mutant-injector" (fun () ->
      List.iter
        (fun m ->
          Hw.Ether_link.transmit
            (Nub.Machine.link client.Fc.nd_machine)
            ~src:(Nub.Machine.mac client.Fc.nd_machine)
            (Bytes.copy m);
          Sim.Engine.delay cl.Fc.cl_eng (Sim.Time.ms 1))
        injectable;
      Hw.Cpu_set.with_cpu (Nub.Machine.cpus client.Fc.nd_machine) (fun ctx ->
          let act = Rpc.Runtime.new_client client.Fc.nd_rt in
          ignore
            (Rpc.Runtime.call binding act ctx ~proc_idx:Ti.null_idx ~args:[]));
      Sim.Gate.open_ gate);
  Fc.run_until_quiet cl gate;
  Alcotest.(check bool) "mutants were injected" true (List.length injectable > 0);
  Alcotest.(check bool) "checksum-covered mutants rejected on the server" true
    (Rpc.Node.checksum_rejects server.Fc.nd_rpc > 0)

(* {1 The real loopback UDP socket backend} *)

let with_socket f =
  if not (Us.available ()) then Alcotest.skip ()
  else begin
    let intf = Ti.interface in
    match Us.start_server ~intf ~impls:(Realnet.Crossval.test_impls ()) () with
    | Error e -> Alcotest.failf "start_server: %s" e
    | Ok server ->
      Fun.protect ~finally:(fun () -> Us.stop_server server) @@ fun () -> f server intf
  end

let connect_exn ?capture ?send_filter ?retransmit_after ?max_retries server intf =
  match
    Us.connect ?capture ?send_filter ?retransmit_after ?max_retries
      ~port:(Us.server_port server) ~intf ()
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let test_socket_roundtrip () =
  with_socket @@ fun server intf ->
  let c = connect_exn server intf in
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  Alcotest.(check int) "Null returns no results" 0
    (List.length (Us.call c ~proc_idx:Ti.null_idx ~args:[]));
  (* MaxArg's 1440-byte buffer is the call's last VAR argument, which
     travels without a length prefix: exactly one full frame.  The
     fragmented-call cases below use a 6000-byte argument. *)
  let arg = Ti.pattern Ti.buffer_bytes in
  ignore (Us.call c ~proc_idx:Ti.max_arg_idx ~args:[ Rpc.Marshal.V_bytes arg ]);
  match Us.call c ~proc_idx:Ti.max_result_idx ~args:[ Rpc.Marshal.V_bytes Bytes.empty ] with
  | [ Rpc.Marshal.V_bytes b ] ->
    Alcotest.(check bool) "MaxResult returns the pattern" true (Bytes.equal b arg)
  | _ -> Alcotest.fail "MaxResult: unexpected result shape"

let test_socket_reassembly () =
  with_socket @@ fun server intf ->
  let c = connect_exn server intf in
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  let len = 6000 in
  match
    Us.call c ~proc_idx:Ti.get_data_idx
      ~args:[ Rpc.Marshal.V_int (Int32.of_int len); Rpc.Marshal.V_bytes Bytes.empty ]
  with
  | [ _; Rpc.Marshal.V_bytes b ] | [ Rpc.Marshal.V_bytes b ] ->
    Alcotest.(check int) "multi-fragment result reassembled to full length" len
      (Bytes.length b);
    Alcotest.(check bool) "reassembled bytes are the pattern" true
      (Bytes.equal b (Ti.pattern len))
  | _ -> Alcotest.fail "GetData: unexpected result shape"

let test_socket_retransmit () =
  with_socket @@ fun server intf ->
  let dropped = ref 0 in
  (* Drop the first two frames the client sends; the retransmission
     loop must push the call through anyway. *)
  let send_filter _ =
    if !dropped < 2 then begin
      incr dropped;
      false
    end
    else true
  in
  let c = connect_exn ~send_filter ~retransmit_after:0.02 ~max_retries:20 server intf in
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  ignore (Us.call c ~proc_idx:Ti.null_idx ~args:[]);
  Alcotest.(check int) "the filter really dropped frames" 2 !dropped

let test_socket_rejects_malformed () =
  with_socket @@ fun server intf ->
  let c = connect_exn server intf in
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  let _, mutants = corpus (Us.timing ()) in
  List.iter (fun m -> if Bytes.length m > 0 then Us.send_raw c m) mutants;
  let sent = List.length (List.filter (fun m -> Bytes.length m > 0) mutants) in
  (* The call's datagram arrives after the mutants (same flow, in
     order), so a completed call means they were all processed. *)
  ignore (Us.call c ~proc_idx:Ti.null_idx ~args:[]);
  Alcotest.(check int) "every malformed datagram was rejected" sent
    (Us.server_rejected server);
  ignore (Us.call c ~proc_idx:Ti.null_idx ~args:[])

(* {1 Fragmented calls}

   A 6000-byte VAR IN argument (the last argument: no length prefix)
   fragments the call itself into five stop-and-wait frames. *)

let upload_bytes = 6000

let upload_intf =
  Rpc.Idl.interface ~name:"Upload" ~version:1
    [
      Rpc.Idl.proc "Put"
        [ Rpc.Idl.arg ~mode:Rpc.Idl.Var_in "data" (Rpc.Idl.T_var_bytes upload_bytes) ];
    ]

let upload_arg = [ Rpc.Marshal.V_bytes (Ti.pattern upload_bytes) ]

(* Counts executions and checks every one saw the exact bytes. *)
let upload_impl executions = function
  | [ Rpc.Marshal.V_bytes b ] when Bytes.equal b (Ti.pattern upload_bytes) ->
    incr executions;
    []
  | _ -> failwith "Put: the argument arrived corrupted"

let test_fragmented_call transport () =
  let w = World.create ~idle_load:false ~export_test:false () in
  let executions = ref 0 in
  let impls = [| (fun _ctx args -> upload_impl executions args) |] in
  let binding =
    match transport with
    | `Local ->
      Rpc.Runtime.export w.World.caller_rt upload_intf ~impls ~workers:1;
      Rpc.Binder.bind w.World.binder w.World.caller_rt ~server:w.World.caller_rt upload_intf ()
    | `Auto ->
      Rpc.Binder.export w.World.binder w.World.server_rt upload_intf ~impls ~workers:2;
      Rpc.Binder.import w.World.binder w.World.caller_rt ~name:"Upload" ~version:1 ()
  in
  let gate = Sim.Gate.create w.World.eng in
  let outs = ref None in
  Nub.Machine.spawn_thread w.World.caller ~name:"uploader" (fun () ->
      Hw.Cpu_set.with_cpu (Nub.Machine.cpus w.World.caller) (fun ctx ->
          let client = Rpc.Runtime.new_client w.World.caller_rt in
          outs := Some (Rpc.Runtime.call binding client ctx ~proc_idx:0 ~args:upload_arg));
      Sim.Gate.open_ gate);
  World.run_until_quiet w gate;
  Alcotest.(check bool) "the call returned" true (!outs = Some []);
  Alcotest.(check int) "executed once with the exact bytes" 1 !executions

let with_upload_server f =
  if not (Us.available ()) then Alcotest.skip ()
  else begin
    let executions = ref 0 in
    match Us.start_server ~intf:upload_intf ~impls:[| upload_impl executions |] () with
    | Error e -> Alcotest.failf "start_server: %s" e
    | Ok server ->
      Fun.protect ~finally:(fun () -> Us.stop_server server) @@ fun () -> f server executions
  end

let test_socket_fragmented_call () =
  with_upload_server @@ fun server executions ->
  let c = connect_exn server upload_intf in
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  Alcotest.(check int) "Put returns no results" 0
    (List.length (Us.call c ~proc_idx:0 ~args:upload_arg));
  Alcotest.(check int) "executed once with the exact bytes" 1 !executions

(* One schedule of call-fragment faults through the real socket: the
   first copy of fragment 1 is dropped, fragment 2 goes out twice, and
   fragment 0 is replayed right after fragment 3. *)
let test_socket_call_fragment_faults () =
  with_upload_server @@ fun server executions ->
  let tmg = Us.timing () in
  let client = ref None in
  let raw b = Us.send_raw (Option.get !client) b in
  let first = Hashtbl.create 8 in
  let send_filter frame =
    match Rpc.Frames.parse tmg frame with
    | Ok { Rpc.Frames.p_hdr = { Rpc.Proto.ptype = Rpc.Proto.Call; frag_idx; _ }; _ }
      when not (Hashtbl.mem first frag_idx) -> (
      Hashtbl.replace first frag_idx frame;
      match frag_idx with
      | 1 -> false
      | 2 ->
        raw frame;
        true
      | 3 ->
        raw frame;
        raw (Hashtbl.find first 0);
        false
      | _ -> true)
    | _ -> true
  in
  let c = connect_exn ~send_filter ~retransmit_after:0.02 ~max_retries:50 server upload_intf in
  client := Some c;
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  Alcotest.(check int) "Put returns no results" 0
    (List.length (Us.call c ~proc_idx:0 ~args:upload_arg));
  Alcotest.(check int) "all five fragments went out" 5 (Hashtbl.length first);
  Alcotest.(check int) "executed once with the exact bytes" 1 !executions

(* {1 One stalled transfer must not stall the server}

   Client A's GetData(6000) result goes stop-and-wait while A drops its
   own fragment acks, so the server's transfer to A waits.  Client B's
   Null() meanwhile must be answered at once: one frame, no
   retransmission.  (The server once waited for A's ack in a nested
   loop that swallowed B's datagrams, so B needed seconds and several
   retransmissions.) *)
let test_socket_stalled_transfer_isolated () =
  if not (Us.available ()) then Alcotest.skip ()
  else begin
    let executions = Atomic.make 0 in
    let impls = Realnet.Crossval.test_impls () in
    let get_data = impls.(Ti.get_data_idx) in
    impls.(Ti.get_data_idx) <-
      (fun args ->
        Atomic.incr executions;
        get_data args);
    match Us.start_server ~intf:Ti.interface ~impls () with
    | Error e -> Alcotest.failf "start_server: %s" e
    | Ok server ->
      Fun.protect ~finally:(fun () -> Us.stop_server server) @@ fun () ->
      let tmg = Us.timing () in
      let hold_acks = Atomic.make true and a_heard = Atomic.make false in
      let is_ack frame =
        match Rpc.Frames.parse tmg frame with
        | Ok p -> p.Rpc.Frames.p_hdr.Rpc.Proto.ptype = Rpc.Proto.Ack
        | Error _ -> false
      in
      let a =
        connect_exn server Ti.interface
          ~send_filter:(fun f -> not (Atomic.get hold_acks && is_ack f))
          ~capture:(fun ~dir _ -> if dir = `Rx then Atomic.set a_heard true)
      in
      Fun.protect ~finally:(fun () -> Us.close a) @@ fun () ->
      let a_result = ref None in
      let a_thread =
        Thread.create
          (fun () ->
            a_result :=
              Some
                (try
                   Ok
                     (Us.call a ~proc_idx:Ti.get_data_idx
                        ~args:[ Rpc.Marshal.V_int 6000l; Rpc.Marshal.V_bytes Bytes.empty ])
                 with e -> Error (Printexc.to_string e)))
          ()
      in
      let waited = ref 0 in
      while (not (Atomic.get a_heard)) && !waited < 5000 do
        Thread.delay 0.001;
        incr waited
      done;
      Alcotest.(check bool) "A's result transfer has begun" true (Atomic.get a_heard);
      let b_sent = ref 0 in
      let b =
        match
          Us.connect ~thread:2 ~retransmit_after:1.0
            ~capture:(fun ~dir _ -> if dir = `Tx then incr b_sent)
            ~port:(Us.server_port server) ~intf:Ti.interface ()
        with
        | Ok b -> b
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Fun.protect ~finally:(fun () -> Us.close b) @@ fun () ->
      Alcotest.(check int) "B's Null returns" 0 (List.length (Us.call b ~proc_idx:Ti.null_idx ~args:[]));
      Alcotest.(check int) "B needed exactly one transmitted frame" 1 !b_sent;
      Atomic.set hold_acks false;
      Thread.join a_thread;
      (match !a_result with
      | Some (Ok [ Rpc.Marshal.V_bytes r ]) ->
        Alcotest.(check bool) "A receives the 6000-byte pattern" true
          (Bytes.equal r (Ti.pattern 6000))
      | Some (Ok _) -> Alcotest.fail "GetData: unexpected result shape"
      | Some (Error e) -> Alcotest.failf "A's call failed: %s" e
      | None -> Alcotest.fail "A's call did not finish");
      Alcotest.(check int) "GetData executed exactly once" 1 (Atomic.get executions)
  end

(* {1 Peers that never answer}

   Both cases connect the client to a bare loopback socket instead of a
   server. *)

let bare_socket () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname sock with
  | Unix.ADDR_INET (_, port) -> (sock, port)
  | Unix.ADDR_UNIX _ -> Alcotest.fail "a loopback socket without a port"

let call_unanswered ~retransmit_after ~max_retries port =
  match Us.connect ~retransmit_after ~max_retries ~port ~intf:Ti.interface () with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c -> (
    Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
    match Us.call c ~proc_idx:Ti.null_idx ~args:[] with
    | _ -> Alcotest.fail "a call nobody answered returned"
    | exception Us.Call_failed msg -> msg)

(* Nobody serves the port, so each call frame draws an ICMP
   port-unreachable, which the connected client socket reports as
   ECONNREFUSED on its next send or receive.  That is a lost datagram:
   the call must end in the exchange's own give-up, not a [Unix_error]. *)
let test_socket_unserved_port () =
  if not (Us.available ()) then Alcotest.skip ()
  else begin
    let sock, port = bare_socket () in
    Unix.close sock;
    let t0 = Unix.gettimeofday () in
    Alcotest.(check string) "the call gives up" "no response from server"
      (call_unanswered ~retransmit_after:0.01 ~max_retries:3 port);
    let took = Unix.gettimeofday () -. t0 in
    if took >= 1. then Alcotest.failf "giving up took %.3f s" took
  end

(* A peer that never answers but sends the caller 20 junk bytes 80 ms
   after each copy of the call.  Junk makes no progress, so it must
   neither postpone nor hasten the next copy, due 100 ms after the
   last. *)
let test_socket_junk_keeps_deadline () =
  if not (Us.available ()) then Alcotest.skip ()
  else begin
    let peer, port = bare_socket () in
    Unix.setsockopt_float peer Unix.SO_RCVTIMEO 0.01;
    let stop = Atomic.make false and arrivals = ref [] in
    let serve () =
      let buf = Bytes.create 4096 and junk = Bytes.make 20 'x' in
      while not (Atomic.get stop) do
        match Unix.recvfrom peer buf 0 (Bytes.length buf) [] with
        | _, caller ->
          arrivals := Unix.gettimeofday () :: !arrivals;
          Thread.delay 0.08;
          ignore (Unix.sendto peer junk 0 (Bytes.length junk) [] caller)
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      done
    in
    let server = Thread.create serve () in
    let msg =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join server;
          Unix.close peer)
        (fun () -> call_unanswered ~retransmit_after:0.1 ~max_retries:3 port)
    in
    Alcotest.(check string) "the call gives up" "no response from server" msg;
    let arrivals = List.rev !arrivals in
    Alcotest.(check int) "the call and three retransmissions" 4 (List.length arrivals);
    let rec gaps = function a :: (b :: _ as rest) -> (b -. a) :: gaps rest | _ -> [] in
    List.iter
      (fun g ->
        if g < 0.09 || g >= 0.15 then
          Alcotest.failf "copies %.1f ms apart: the junk moved the 100 ms retransmission"
            (g *. 1e3))
      (gaps arrivals)
  end

let test_socket_wire_bytes () =
  (* The acceptance criterion: the first frame of a Null call on the
     loopback wire is byte-identical to what the simulated encoder
     produces for the same header. *)
  with_socket @@ fun server intf ->
  let first_tx = ref None in
  let capture ~dir b =
    match (dir, !first_tx) with `Tx, None -> first_tx := Some b | _ -> ()
  in
  let c = connect_exn ~capture server intf in
  Fun.protect ~finally:(fun () -> Us.close c) @@ fun () ->
  ignore (Us.call c ~proc_idx:Ti.null_idx ~args:[]);
  let tmg = Us.timing () in
  let hdr =
    {
      Rpc.Proto.ptype = Rpc.Proto.Call;
      please_ack = false;
      no_frag_ack = false;
      secured = false;
      activity =
        {
          Rpc.Proto.Activity.caller_ip = Us.caller_endpoint.Rpc.Frames.ip;
          caller_space = 1;
          thread = 1;
        };
      seq = 1;
      server_space = 1;
      interface_id = Rpc.Idl.interface_id intf;
      proc_idx = Ti.null_idx;
      frag_idx = 0;
      frag_count = 1;
      data_len = 0;
      checksum = 0;
    }
  in
  let expected =
    Rpc.Frames.build tmg ~src:Us.caller_endpoint ~dst:Us.server_endpoint ~hdr
      ~payload:Bytes.empty ~payload_pos:0 ~payload_len:0
  in
  match !first_tx with
  | None -> Alcotest.fail "nothing captured"
  | Some got ->
    Alcotest.(check int) "frame length" (Bytes.length expected) (Bytes.length got);
    Alcotest.(check bool) "on-wire bytes identical to the simulated encoder" true
      (Bytes.equal expected got)

let () =
  let sim_cases =
    List.concat_map
      (fun (name, tr) ->
        [
          Alcotest.test_case (name ^ " round trip") `Quick (test_roundtrip tr);
          Alcotest.test_case (name ^ " fragment reassembly") `Quick (test_reassembly tr);
        ])
      sim_transports
    @ [
        Alcotest.test_case "sim fragmented call" `Quick (test_fragmented_call `Auto);
        Alcotest.test_case "local fragmented call" `Quick (test_fragmented_call `Local);
      ]
  in
  Alcotest.run "transport"
    [
      ("bind-rule", [ Alcotest.test_case "placement table" `Quick test_placement_rule ]);
      ("conformance-sim", sim_cases @ [ Alcotest.test_case "sim retransmit under loss" `Quick test_retransmit_sim ]);
      ("malformed", [ Alcotest.test_case "shared corpus rejected" `Quick test_malformed_corpus ]);
      ( "conformance-fleet",
        [
          Alcotest.test_case "fleet binding round trips + reassembly" `Quick
            test_fleet_binding;
          Alcotest.test_case "fleet receive path rejects the corpus" `Quick
            test_fleet_malformed;
        ] );
      ( "conformance-socket",
        [
          Alcotest.test_case "socket round trip" `Quick test_socket_roundtrip;
          Alcotest.test_case "socket fragment reassembly" `Quick test_socket_reassembly;
          Alcotest.test_case "socket retransmit under loss" `Quick test_socket_retransmit;
          Alcotest.test_case "socket rejects malformed frames" `Quick
            test_socket_rejects_malformed;
          Alcotest.test_case "socket wire bytes = simulated bytes" `Quick
            test_socket_wire_bytes;
          Alcotest.test_case "socket fragmented call" `Quick test_socket_fragmented_call;
          Alcotest.test_case "socket call-fragment faults" `Quick test_socket_call_fragment_faults;
          Alcotest.test_case "socket stalled transfer isolated" `Quick
            test_socket_stalled_transfer_isolated;
          Alcotest.test_case "socket unserved port fails cleanly" `Quick test_socket_unserved_port;
          Alcotest.test_case "socket junk keeps the deadline" `Quick
            test_socket_junk_keeps_deadline;
        ] );
    ]
