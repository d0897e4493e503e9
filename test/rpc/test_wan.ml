(* RPC across an IP gateway: two Ethernet segments joined by a router
   that forwards real IPv4 packets (TTL decrement, header checksum
   recomputation).  The paper keeps RPC on IP/UDP precisely to make
   this possible (§4.2.6). *)

module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Router = Nub.Router
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal
module Runtime = Rpc.Runtime
module Binder = Rpc.Binder

let ip = Net.Ipv4.Addr.of_string

type wan = {
  eng : Engine.t;
  caller : Machine.t;
  server : Machine.t;
  caller_rt : Runtime.t;
  server_rt : Runtime.t;
  router : Router.t;
  binder : Binder.t;
}

let test_intf =
  Idl.interface ~name:"Wan" ~version:1
    [
      Idl.proc "double"
        [
          Idl.arg ~mode:Idl.Var_in "input" (Idl.T_var_bytes 8000);
          Idl.arg ~mode:Idl.Var_out "output" (Idl.T_var_bytes 8000);
        ];
    ]

let impls : Runtime.impl array =
  [|
    (fun _ctx args ->
      match args with
      | [ Marshal.V_bytes b; _ ] ->
        [ Marshal.V_bytes (Bytes.cat b b) ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "double"));
  |]

let build_wan () =
  let eng = Engine.create ~seed:3 () in
  let link_a = Hw.Ether_link.create eng ~mbps:10. in
  let link_b = Hw.Ether_link.create eng ~mbps:10. in
  let caller =
    Machine.create eng ~name:"caller" ~config:Hw.Config.default ~link:link_a ~station:1
      ~ip:(ip "16.1.0.10") ()
  in
  let server =
    Machine.create eng ~name:"server" ~config:Hw.Config.default ~link:link_b ~station:2
      ~ip:(ip "16.2.0.20") ()
  in
  let router =
    Router.create eng ~name:"gw" ~config:Hw.Config.default ~link_a ~station_a:40
      ~ip_a:(ip "16.1.0.1") ~link_b ~station_b:41 ~ip_b:(ip "16.2.0.1") ()
  in
  Router.add_route router (ip "16.1.0.0") ~mask_bits:16 Router.A;
  Router.add_route router (ip "16.2.0.0") ~mask_bits:16 Router.B;
  Router.add_host router Router.A (ip "16.1.0.10") (Machine.mac caller);
  Router.add_host router Router.B (ip "16.2.0.20") (Machine.mac server);
  (* Different /16s: the binder routes via the gateway's near-side port. *)
  let resolve ~caller:c ~server:s =
    let subnet m = Int32.logand (Net.Ipv4.Addr.to_int32 (Machine.ip m)) 0xffff0000l in
    if Int32.equal (subnet c) (subnet s) then None
    else if Int32.equal (subnet c) 0x10010000l then
      Some { Rpc.Frames.mac = Router.port_mac router Router.A; ip = Machine.ip s }
    else Some { Rpc.Frames.mac = Router.port_mac router Router.B; ip = Machine.ip s }
  in
  let binder = Binder.create ~resolve () in
  let caller_rt = Runtime.create (Rpc.Node.create caller) ~space:1 in
  let server_rt = Runtime.create (Rpc.Node.create server) ~space:1 in
  Binder.export binder server_rt test_intf ~impls ~workers:2;
  { eng; caller; server; caller_rt; server_rt; router; binder }

let run_call w payload =
  let binding = Binder.import w.binder w.caller_rt ~name:"Wan" ~version:1 () in
  let result = ref None in
  let latency = ref Time.zero_span in
  let gate = Sim.Gate.create w.eng in
  Machine.spawn_thread w.caller ~name:"wan-caller" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.caller) (fun ctx ->
          let client = Runtime.new_client w.caller_rt in
          let once () =
            Runtime.call_by_name binding client ctx ~proc:"double"
              ~args:[ Marshal.V_bytes payload; Marshal.V_bytes Bytes.empty ]
          in
          ignore (once ());
          let t0 = Engine.now w.eng in
          result := Some (once ());
          latency := Time.diff (Engine.now w.eng) t0);
      Sim.Gate.open_ gate);
  Engine.run_while w.eng (fun () -> not (Sim.Gate.is_open gate));
  Alcotest.(check bool) "completed" true (Sim.Gate.is_open gate);
  (Option.get !result, !latency)

let test_cross_gateway_call () =
  let w = build_wan () in
  let payload = Bytes.of_string "over the wide area" in
  let result, latency = run_call w payload in
  (match result with
  | [ Marshal.V_bytes b ] ->
    Alcotest.(check bytes) "doubled across the gateway" (Bytes.cat payload payload) b
  | _ -> Alcotest.fail "bad result");
  Alcotest.(check bool) "router forwarded both directions" true (Router.forwarded w.router >= 4);
  Alcotest.(check int) "no routing failures" 0
    (Router.dropped_no_route w.router + Router.dropped_no_arp w.router
   + Router.dropped_ttl w.router);
  (* One extra store-and-forward hop each way: noticeably slower than
     the single-segment 2.66 ms, but far below two RPCs. *)
  Alcotest.(check bool) "slower than direct" true (Time.to_ms latency > 3.2);
  Alcotest.(check bool) "still one RPC, not two" true (Time.to_ms latency < 5.5)

let test_multi_packet_across_gateway () =
  let w = build_wan () in
  let payload = Bytes.init 3000 (fun i -> Char.chr (i mod 251)) in
  let result, _ = run_call w payload in
  match result with
  | [ Marshal.V_bytes b ] ->
    Alcotest.(check int) "6000 bytes back" 6000 (Bytes.length b);
    Alcotest.(check bytes) "content intact" (Bytes.cat payload payload) b
  | _ -> Alcotest.fail "bad result"

let test_call_id_crosses_gateway () =
  (* Traced from the start, both calls (the warm-up and the timed one)
     get ids 0 and 1.  The router forwards a copy of each frame; the
     copy must keep its id, so the far segment's controller, wire and
     server work attributes to the call like the near side's. *)
  let w = build_wan () in
  let tr = Engine.trace w.eng in
  Sim.Trace.set_enabled tr true;
  ignore (run_call w (Bytes.of_string "traced"));
  let spans =
    List.filter (fun (s : Sim.Trace.span) -> s.cat <> "background") (Sim.Trace.spans tr)
  in
  List.iter
    (fun (s : Sim.Trace.span) ->
      if s.call = Sim.Trace.no_call then
        Alcotest.failf "%s on %s/%s carries no call" s.label s.site s.track)
    spans;
  let calls_at site =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Sim.Trace.span) -> if s.site = site then Some s.call else None)
         spans)
  in
  Alcotest.(check (list int)) "forwarding runs under both calls" [ 0; 1 ] (calls_at "gw");
  Alcotest.(check (list int)) "far controller works for both calls" [ 0; 1 ] (calls_at "gw-b");
  Alcotest.(check (list int)) "server works for both calls" [ 0; 1 ] (calls_at "server")

let test_ttl_expiry () =
  (* A frame arriving with TTL 1 must be dropped, not forwarded. *)
  let eng = Engine.create () in
  let link_a = Hw.Ether_link.create eng ~mbps:10. in
  let link_b = Hw.Ether_link.create eng ~mbps:10. in
  let router =
    Router.create eng ~name:"gw" ~config:Hw.Config.default ~link_a ~station_a:40
      ~ip_a:(ip "16.1.0.1") ~link_b ~station_b:41 ~ip_b:(ip "16.2.0.1") ()
  in
  Router.add_route router (ip "16.2.0.0") ~mask_bits:16 Router.B;
  Router.add_host router Router.B (ip "16.2.0.20") (Net.Mac.of_station 2);
  let w = Wire.Bytebuf.Writer.create 128 in
  Net.Ethernet.encode w
    {
      Net.Ethernet.dst = Router.port_mac router Router.A;
      src = Net.Mac.of_station 1;
      ethertype = Net.Ethernet.ethertype_ipv4;
    };
  Net.Ipv4.encode w
    {
      Net.Ipv4.src = ip "16.1.0.10";
      dst = ip "16.2.0.20";
      protocol = Net.Ipv4.protocol_udp;
      ttl = 1;
      ident = 0;
      payload_len = 8;
    };
  Wire.Bytebuf.Writer.zeros w 8;
  let sender = Hw.Ether_link.attach link_a ~mac:(Net.Mac.of_station 1)
      ~on_frame_start:(fun ~frame:_ ~call:_ ~wire:_ -> ()) in
  ignore sender;
  Engine.spawn eng (fun () ->
      Hw.Ether_link.transmit link_a ~src:(Net.Mac.of_station 1) (Wire.Bytebuf.Writer.contents w));
  Engine.run_until eng (Time.add Time.zero (Time.ms 100));
  Alcotest.(check int) "dropped on TTL" 1 (Router.dropped_ttl router);
  Alcotest.(check int) "not forwarded" 0 (Router.forwarded router)

let test_checksums_survive_forwarding () =
  (* The router rewrites the IP header; the UDP checksum must still
     verify end-to-end at the server (it covers the unchanged IP
     addresses via the pseudo-header). *)
  let w = build_wan () in
  let _ = run_call w (Bytes.of_string "checksum me") in
  Alcotest.(check int) "no checksum rejects at server" 0
    (Rpc.Node.checksum_rejects
       (let _ = w.server_rt in
        Runtime.node w.server_rt))

let suite =
  [
    Alcotest.test_case "call across gateway" `Quick test_cross_gateway_call;
    Alcotest.test_case "multi-packet across gateway" `Quick test_multi_packet_across_gateway;
    Alcotest.test_case "call id crosses gateway" `Quick test_call_id_crosses_gateway;
    Alcotest.test_case "TTL expiry drops" `Quick test_ttl_expiry;
    Alcotest.test_case "UDP checksum survives forwarding" `Quick
      test_checksums_survive_forwarding;
  ]
