(* The DECNet transport: raw sequenced-message service, then RPC bound
   over it (the paper's third bind-time transport, §3.1). *)

module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal
module Runtime = Rpc.Runtime
module Binder = Rpc.Binder
module Decnet = Rpc.Decnet
module World = Workload.World

let v_int n = Marshal.V_int (Int32.of_int n)

type rig = {
  w : World.t;
  client_ep : Decnet.endpoint;
  server_ep : Decnet.endpoint;
}

let make_rig ?caller_config ?server_config () =
  let w = World.create ?caller_config ?server_config ~export_test:false () in
  {
    w;
    client_ep = Binder.decnet_endpoint w.World.binder w.World.caller_node;
    server_ep = Binder.decnet_endpoint w.World.binder w.World.server_node;
  }

(* Echo server on the raw transport: reverses each message. *)
let start_echo_server rig ~space =
  Decnet.listen rig.server_ep ~space (fun conn ->
      Cpu_set.with_cpu (Machine.cpus rig.w.World.server) (fun ctx ->
          let rec loop () =
            match Decnet.recv_message conn ctx ~timeout:(Time.sec 10) with
            | None -> ()
            | Some m ->
              let n = Bytes.length m in
              Decnet.send_message conn ctx (Bytes.init n (fun i -> Bytes.get m (n - 1 - i)));
              loop ()
          in
          loop ()))

(* Drops the DECNet segments of type [code] (the byte after the Ethernet
   header: 1 Connect_init, 4 Data_ack), the first [times] of them. *)
let drop_segments ?(times = max_int) rig ~code =
  let left = ref times in
  Hw.Ether_link.set_fault_injector rig.w.World.link
    (Some
       (fun frame ->
         if
           !left > 0
           && Bytes.length frame > 14
           && Bytes.get_uint16_be frame 12 = Decnet.ethertype
           && Bytes.get_uint8 frame 14 = code
         then begin
           decr left;
           Hw.Ether_link.Drop
         end
         else Hw.Ether_link.Deliver))

let call_failure f =
  match f () with
  | _ -> None
  | exception Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Call_failed msg) -> Some msg

let with_client rig f =
  let gate = Sim.Gate.create rig.w.World.eng in
  let out = ref None in
  Machine.spawn_thread rig.w.World.caller ~name:"decnet-client" (fun () ->
      Cpu_set.with_cpu (Machine.cpus rig.w.World.caller) (fun ctx -> out := Some (f ctx));
      Sim.Gate.open_ gate);
  World.run_until_quiet rig.w gate;
  Option.get !out

let test_connect_and_echo () =
  let rig = make_rig () in
  start_echo_server rig ~space:1;
  let replies =
    with_client rig (fun ctx ->
        let conn =
          Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:1 ()
        in
        let echo s =
          Decnet.send_message conn ctx (Bytes.of_string s);
          match Decnet.recv_message conn ctx ~timeout:(Time.sec 5) with
          | Some b -> Bytes.to_string b
          | None -> "<timeout>"
        in
        let r1 = echo "hello" in
        let r2 = echo "decnet" in
        Decnet.close conn ctx;
        [ r1; r2 ])
  in
  Alcotest.(check (list string)) "echoed in order" [ "olleh"; "tenced" ] replies;
  Alcotest.(check int) "one connection" 1 (Decnet.connections_accepted rig.server_ep)

let test_large_message_segmentation () =
  let rig = make_rig () in
  start_echo_server rig ~space:1;
  let ok =
    with_client rig (fun ctx ->
        let conn =
          Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:1 ()
        in
        let msg = Bytes.init 5000 (fun i -> Char.chr (i mod 251)) in
        Decnet.send_message conn ctx msg;
        match Decnet.recv_message conn ctx ~timeout:(Time.sec 5) with
        | Some b ->
          Bytes.length b = 5000
          && Bytes.equal b (Bytes.init 5000 (fun i -> Bytes.get msg (4999 - i)))
        | None -> false)
  in
  Alcotest.(check bool) "5KB message reassembled correctly" true ok;
  Alcotest.(check bool) "multiple segments used" true (Decnet.segments_sent rig.client_ep >= 4)

let test_retransmission_under_loss () =
  let rig = make_rig () in
  start_echo_server rig ~space:1;
  let ok =
    with_client rig (fun ctx ->
        let rng = Sim.Rng.create ~seed:5 in
        Hw.Ether_link.set_fault_injector rig.w.World.link
          (Some
             (fun _ ->
               if Sim.Rng.bool rng ~p:0.2 then Hw.Ether_link.Drop else Hw.Ether_link.Deliver));
        let conn =
          Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:1 ()
        in
        let all_ok = ref true in
        for i = 1 to 8 do
          let s = Printf.sprintf "message-%d" i in
          Decnet.send_message conn ctx (Bytes.of_string s);
          match Decnet.recv_message conn ctx ~timeout:(Time.sec 20) with
          | Some b ->
            let expect = String.init (String.length s) (fun j -> s.[String.length s - 1 - j]) in
            if Bytes.to_string b <> expect then all_ok := false
          | None -> all_ok := false
        done;
        !all_ok)
  in
  Alcotest.(check bool) "all messages survive 20% loss" true ok;
  Alcotest.(check bool) "retransmissions occurred" true
    (Decnet.segments_retransmitted rig.client_ep + Decnet.segments_retransmitted rig.server_ep
    > 0)

(* The first Connect_init is lost: connect resends it once, and the
   server accepts the copy. *)
let test_connect_init_resent () =
  let rig = make_rig () in
  start_echo_server rig ~space:1;
  drop_segments rig ~code:1 ~times:1;
  let reply =
    with_client rig (fun ctx ->
        let conn =
          Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:1 ()
        in
        Decnet.send_message conn ctx (Bytes.of_string "again");
        match Decnet.recv_message conn ctx ~timeout:(Time.sec 5) with
        | Some b -> Bytes.to_string b
        | None -> "<timeout>")
  in
  Alcotest.(check string) "echoed" "niaga" reply;
  Alcotest.(check int) "one resend" 1 (Decnet.segments_retransmitted rig.client_ep);
  Alcotest.(check int) "one connection" 1 (Decnet.connections_accepted rig.server_ep)

(* Every Data_ack is lost: the segment is resent [max_retries] times,
   then the send gives up and closes the connection. *)
let test_send_gives_up () =
  let rig = make_rig () in
  start_echo_server rig ~space:1;
  let failure, still_open =
    with_client rig (fun ctx ->
        let conn =
          Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:1
            ~retransmit_after:(Time.ms 20) ~max_retries:3 ()
        in
        drop_segments rig ~code:4;
        let failure =
          call_failure (fun () -> Decnet.send_message conn ctx (Bytes.of_string "lost"))
        in
        (failure, Decnet.is_open conn))
  in
  Alcotest.(check (option string)) "gives up" (Some "decnet: retransmission limit reached")
    failure;
  Alcotest.(check int) "three resends" 3 (Decnet.segments_retransmitted rig.client_ep);
  Alcotest.(check bool) "connection closed" false still_open

let test_connect_no_listener () =
  let rig = make_rig () in
  let failure =
    with_client rig (fun ctx ->
        call_failure (fun () ->
            Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:9
              ~retransmit_after:(Time.ms 20) ~max_retries:3 ()))
  in
  Alcotest.(check (option string)) "connect to missing listener fails"
    (Some "decnet: no response to connect") failure;
  Alcotest.(check int) "three resends" 3 (Decnet.segments_retransmitted rig.client_ep)

let test_disconnect () =
  let rig = make_rig () in
  (* a server that closes after the first message *)
  Decnet.listen rig.server_ep ~space:1 (fun conn ->
      Cpu_set.with_cpu (Machine.cpus rig.w.World.server) (fun ctx ->
          (match Decnet.recv_message conn ctx ~timeout:(Time.sec 10) with
          | Some _ -> ()
          | None -> ());
          Decnet.close conn ctx));
  let outcome =
    with_client rig (fun ctx ->
        let conn =
          Decnet.connect rig.client_ep ctx ~peer:(Machine.mac rig.w.World.server) ~space:1 ()
        in
        Decnet.send_message conn ctx (Bytes.of_string "bye");
        match Decnet.recv_message conn ctx ~timeout:(Time.sec 5) with
        | None -> not (Decnet.is_open conn)
        | Some _ -> false)
  in
  Alcotest.(check bool) "close propagates" true outcome

(* {1 RPC over DECNet} *)

let adder =
  Idl.interface ~name:"Adder" ~version:1
    [
      Idl.proc "add"
        [ Idl.arg "x" Idl.T_int; Idl.arg "y" Idl.T_int; Idl.arg ~mode:Idl.Var_out "sum" Idl.T_int ];
      Idl.proc "blob"
        [ Idl.arg "n" Idl.T_int; Idl.arg ~mode:Idl.Var_out "data" (Idl.T_var_bytes 8000) ];
      Idl.proc "boom" [ Idl.arg "x" Idl.T_int ];
    ]

let adder_impls : Runtime.impl array =
  [|
    (fun _ctx args ->
      match args with
      | [ Marshal.V_int x; Marshal.V_int y; _ ] -> [ Marshal.V_int (Int32.add x y) ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "add"));
    (fun _ctx args ->
      match args with
      | [ Marshal.V_int n; _ ] ->
        [ Marshal.V_bytes (Workload.Test_interface.pattern (Int32.to_int n)) ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "blob"));
    (fun _ctx _args -> failwith "boom");
  |]

let import_adder rig =
  Binder.export rig.w.World.binder rig.w.World.server_rt adder ~impls:adder_impls ~workers:2;
  Binder.import rig.w.World.binder rig.w.World.caller_rt ~name:"Adder" ~version:1
    ~transport:`Decnet ()

let add binding client ctx x y =
  match Runtime.call_by_name binding client ctx ~proc:"add" ~args:[ v_int x; v_int y; v_int 0 ] with
  | [ Marshal.V_int s ] -> Int32.to_int s
  | _ -> Alcotest.fail "add shape"

let test_rpc_over_decnet () =
  let rig = make_rig () in
  let binding = import_adder rig in
  Alcotest.(check bool) "not local" false (Runtime.is_local binding);
  let results =
    with_client rig (fun ctx ->
        let client = Runtime.new_client rig.w.World.caller_rt in
        let a = Runtime.call_by_name binding client ctx ~proc:"add" ~args:[ v_int 40; v_int 2; v_int 0 ] in
        let b =
          Runtime.call_by_name binding client ctx ~proc:"blob"
            ~args:[ v_int 6000; Marshal.V_bytes Bytes.empty ]
        in
        let c = Runtime.call_by_name binding client ctx ~proc:"add" ~args:[ v_int 1; v_int 2; v_int 0 ] in
        (a, b, c))
  in
  let a, b, c = results in
  Alcotest.(check bool) "add" true (a = [ v_int 42 ]);
  (match b with
  | [ Marshal.V_bytes bytes ] ->
    Alcotest.(check bool) "6KB result over decnet" true
      (Bytes.equal bytes (Workload.Test_interface.pattern 6000))
  | _ -> Alcotest.fail "blob shape");
  Alcotest.(check bool) "add again on same session" true (c = [ v_int 3 ]);
  Alcotest.(check int) "session reused (one connection)" 1
    (Decnet.connections_accepted rig.server_ep)

(* An error reply is the server's answer on a healthy session: the
   calls after it reuse the one connection instead of paying a new
   handshake. *)
let test_error_reply_keeps_session () =
  let rig = make_rig () in
  let binding = import_adder rig in
  let first, failure, last =
    with_client rig (fun ctx ->
        let client = Runtime.new_client rig.w.World.caller_rt in
        let first = add binding client ctx 1 2 in
        let failure =
          match Runtime.call_by_name binding client ctx ~proc:"boom" ~args:[ v_int 0 ] with
          | _ -> None
          | exception Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Call_failed msg) -> Some msg
        in
        (first, failure, add binding client ctx 3 4))
  in
  Alcotest.(check int) "ok before" 3 first;
  (match failure with
  | Some msg ->
    Alcotest.(check bool) ("server error reported: " ^ msg) true
      (String.starts_with ~prefix:"server: " msg)
  | None -> Alcotest.fail "boom returned normally");
  Alcotest.(check int) "ok after" 7 last;
  Alcotest.(check int) "one connection" 1 (Decnet.connections_accepted rig.server_ep)

(* Several caller threads share one binding, so they queue on its
   session lock; each call must still get its own reply. *)
let test_shared_binding () =
  let rig = make_rig () in
  let binding = import_adder rig in
  let threads = 3 and calls = 4 in
  let finished = ref 0 in
  let wrong = ref [] in
  let gate = Sim.Gate.create rig.w.World.eng in
  for th = 1 to threads do
    Machine.spawn_thread rig.w.World.caller ~name:"decnet-caller" (fun () ->
        Cpu_set.with_cpu (Machine.cpus rig.w.World.caller) (fun ctx ->
            let client = Runtime.new_client rig.w.World.caller_rt in
            for i = 1 to calls do
              let x = (100 * th) + i in
              let got = add binding client ctx x th in
              if got <> x + th then wrong := (th, i, got) :: !wrong
            done);
        incr finished;
        if !finished = threads then Sim.Gate.open_ gate)
  done;
  World.run_until_quiet rig.w gate;
  Alcotest.(check int) "every thread finished" threads !finished;
  Alcotest.(check (list (triple int int int))) "every call got its own result" [] !wrong;
  Alcotest.(check int) "one connection" 1 (Decnet.connections_accepted rig.server_ep)

let test_decnet_slower_than_udp () =
  (* The reason the custom packet-exchange protocol exists: the general
     transport costs more per call. *)
  let udp =
    let w = World.create () in
    Time.to_us (Workload.Driver.measure_single_call w ~proc:Workload.Driver.Null ())
  in
  let decnet =
    let rig = make_rig () in
    let binding = import_adder rig in
    with_client rig (fun ctx ->
        let client = Runtime.new_client rig.w.World.caller_rt in
        let once () =
          ignore
            (Runtime.call_by_name binding client ctx ~proc:"add"
               ~args:[ v_int 1; v_int 1; v_int 0 ])
        in
        once ();
        once ();
        let t0 = Engine.now rig.w.World.eng in
        once ();
        Time.to_us (Time.diff (Engine.now rig.w.World.eng) t0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "decnet (%.0fus) slower than the custom protocol (%.0fus)" decnet udp)
    true
    (decnet > udp *. 1.3);
  Alcotest.(check bool) "but same order of magnitude" true (decnet < udp *. 4.)

let test_keyed_export_rejects_decnet () =
  let rig = make_rig () in
  Binder.export rig.w.World.binder rig.w.World.server_rt adder ~impls:adder_impls ~workers:2
    ~auth:(Rpc.Secure.key_of_string "k");
  let binding =
    Binder.import rig.w.World.binder rig.w.World.caller_rt ~name:"Adder" ~version:1
      ~transport:`Decnet ()
  in
  let rejected =
    with_client rig (fun ctx ->
        let client = Runtime.new_client rig.w.World.caller_rt in
        try
          ignore
            (Runtime.call_by_name binding client ctx ~proc:"add"
               ~args:[ v_int 1; v_int 1; v_int 0 ]);
          false
        with Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Call_failed _) -> true)
  in
  Alcotest.(check bool) "unauthenticated decnet call rejected" true rejected

(* A dropped world must be collectable whatever it bound over: nothing
   outside the world may keep its nodes alive.  Returns a weak pointer
   to the caller node of a world that made three calls. *)
let weak_caller_node transport =
  let w = World.create () in
  ignore (Workload.Driver.run w ~transport ~threads:1 ~calls:3 ~proc:Workload.Driver.Null ());
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some w.World.caller_node);
  weak

let test_world_freed () =
  List.iter
    (fun (name, transport) ->
      let weak = (Sys.opaque_identity weak_caller_node) transport in
      Gc.full_major ();
      Gc.full_major ();
      Alcotest.(check bool) (name ^ ": caller node collected") false (Weak.check weak 0))
    [ ("custom protocol", `Auto); ("DECNet", `Decnet) ]

let suite =
  [
    Alcotest.test_case "connect and echo" `Quick test_connect_and_echo;
    Alcotest.test_case "large message segmentation" `Quick test_large_message_segmentation;
    Alcotest.test_case "retransmission under loss" `Quick test_retransmission_under_loss;
    Alcotest.test_case "connect without listener" `Quick test_connect_no_listener;
    Alcotest.test_case "a lost connect is resent once" `Quick test_connect_init_resent;
    Alcotest.test_case "a send gives up after max_retries resends" `Quick test_send_gives_up;
    Alcotest.test_case "disconnect propagation" `Quick test_disconnect;
    Alcotest.test_case "RPC over DECNet" `Quick test_rpc_over_decnet;
    Alcotest.test_case "an error reply keeps the session" `Quick test_error_reply_keeps_session;
    Alcotest.test_case "callers share one binding" `Quick test_shared_binding;
    Alcotest.test_case "DECNet slower than the custom protocol" `Quick
      test_decnet_slower_than_udp;
    Alcotest.test_case "keyed export rejects DECNet calls" `Quick
      test_keyed_export_rejects_decnet;
    Alcotest.test_case "a dropped world is collected" `Quick test_world_freed;
  ]
