(* End-to-end tests through the full stack: two simulated Fireflies on a
   shared Ethernet, real packets, real checksums, the full
   retransmission/fragmentation/duplicate machinery. *)

module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Config = Hw.Config
module Machine = Nub.Machine
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal
module Runtime = Rpc.Runtime
module Binder = Rpc.Binder
module World = Workload.World
module Driver = Workload.Driver

let v_int n = Marshal.V_int (Int32.of_int n)
let v_bytes s = Marshal.V_bytes (Bytes.of_string s)

(* A computational Echo interface: results depend on arguments, so a
   passing test proves real data movement, not just plumbing. *)
let echo_interface =
  Idl.interface ~name:"Echo" ~version:3
    [
      Idl.proc "add"
        [ Idl.arg "x" Idl.T_int; Idl.arg "y" Idl.T_int; Idl.arg ~mode:Idl.Var_out "sum" Idl.T_int ];
      Idl.proc "reverse"
        [
          Idl.arg ~mode:Idl.Var_in "input" (Idl.T_var_bytes 8000);
          Idl.arg ~mode:Idl.Var_out "output" (Idl.T_var_bytes 8000);
        ];
      Idl.proc "greet"
        [ Idl.arg "name" (Idl.T_text 64); Idl.arg ~mode:Idl.Var_out "greeting" (Idl.T_text 80) ];
      Idl.proc "fail" [ Idl.arg "x" Idl.T_int ];
      Idl.proc "slow_add"
        [ Idl.arg "x" Idl.T_int; Idl.arg "y" Idl.T_int; Idl.arg ~mode:Idl.Var_out "sum" Idl.T_int ];
    ]

let echo_impls : Runtime.impl array =
  [|
    (fun _ctx args ->
      match args with
      | [ Marshal.V_int x; Marshal.V_int y; _ ] -> [ Marshal.V_int (Int32.add x y) ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "add: bad args"));
    (fun _ctx args ->
      match args with
      | [ Marshal.V_bytes input; _ ] ->
        let n = Bytes.length input in
        [ Marshal.V_bytes (Bytes.init n (fun i -> Bytes.get input (n - 1 - i))) ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "reverse: bad args"));
    (fun _ctx args ->
      match args with
      | [ Marshal.V_text (Some name); _ ] -> [ Marshal.V_text (Some ("Hello, " ^ name ^ "!")) ]
      | [ Marshal.V_text None; _ ] -> [ Marshal.V_text None ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "greet: bad args"));
    (fun _ctx _args -> failwith "deliberate server failure");
    (fun ctx args ->
      (* A compute-heavy procedure: occupies its worker for 5 ms. *)
      Cpu_set.charge ctx ~cat:"runtime" ~label:"slow procedure body" (Time.ms 5);
      match args with
      | [ Marshal.V_int x; Marshal.V_int y; _ ] -> [ Marshal.V_int (Int32.add x y) ]
      | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "slow_add: bad args"));
  |]

type rig = { w : World.t; binding : Runtime.binding }

(* Runs [f] as a caller thread with a CPU held; returns f's value after
   the simulation completes. *)
let with_rig ?caller_config ?server_config ?options ?(workers = 4) f =
  let w = World.create ?caller_config ?server_config ~workers () in
  Binder.export w.World.binder w.World.server_rt echo_interface ~impls:echo_impls ~workers;
  let binding =
    Binder.import w.World.binder w.World.caller_rt ~name:"Echo" ~version:3 ?options ()
  in
  let rig = { w; binding } in
  let result = ref None in
  let gate = Sim.Gate.create w.World.eng in
  Machine.spawn_thread w.World.caller ~name:"test-caller" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
          let client = Runtime.new_client w.World.caller_rt in
          result := Some (f rig client ctx));
      Sim.Gate.open_ gate);
  World.run_until_quiet w gate;
  Option.get !result

let call rig client ctx name args =
  Runtime.call_by_name rig.binding client ctx ~proc:name ~args

(* {1 Basic semantics} *)

let test_add () =
  let out =
    with_rig (fun rig client ctx -> call rig client ctx "add" [ v_int 20; v_int 22; v_int 0 ])
  in
  Alcotest.(check bool) "20+22=42" true (out = [ v_int 42 ])

let test_reverse () =
  let out =
    with_rig (fun rig client ctx ->
        call rig client ctx "reverse" [ v_bytes "hello world"; Marshal.V_bytes Bytes.empty ])
  in
  Alcotest.(check bool) "reversed" true (out = [ v_bytes "dlrow olleh" ])

let test_text () =
  let out =
    with_rig (fun rig client ctx ->
        call rig client ctx "greet" [ Marshal.V_text (Some "Firefly"); Marshal.V_text None ])
  in
  Alcotest.(check bool) "greeting" true (out = [ Marshal.V_text (Some "Hello, Firefly!") ]);
  let nil =
    with_rig (fun rig client ctx ->
        call rig client ctx "greet" [ Marshal.V_text None; Marshal.V_text None ])
  in
  Alcotest.(check bool) "NIL in, NIL out" true (nil = [ Marshal.V_text None ])

let test_sequential_calls_one_client () =
  let sums =
    with_rig (fun rig client ctx ->
        List.map
          (fun i ->
            match call rig client ctx "add" [ v_int i; v_int i; v_int 0 ] with
            | [ Marshal.V_int s ] -> Int32.to_int s
            | _ -> -1)
          [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check (list int)) "sequence" [ 2; 4; 6; 8; 10 ] sums

let test_server_exception () =
  (* A server-side exception surfaces at the caller as Call_failed and
     leaves the worker alive for subsequent calls. *)
  let out =
    with_rig (fun rig client ctx ->
        let got_error =
          try
            ignore (call rig client ctx "fail" [ v_int 1 ]);
            false
          with Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Call_failed msg) ->
            String.length msg > 0
        in
        let next = call rig client ctx "add" [ v_int 1; v_int 2; v_int 0 ] in
        (got_error, next))
  in
  let got_error, next = out in
  Alcotest.(check bool) "error surfaced" true got_error;
  Alcotest.(check bool) "worker survived" true (next = [ v_int 3 ])

let test_bad_procedure () =
  let ok =
    with_rig (fun rig client ctx ->
        try
          ignore (Runtime.call rig.binding client ctx ~proc_idx:99 ~args:[]);
          false
        with Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Bad_procedure 99) -> true)
  in
  Alcotest.(check bool) "bad proc rejected locally" true ok

let test_unbound_import () =
  let w = World.create () in
  Alcotest.(check bool) "unbound" true
    (try
       ignore (Binder.import w.World.binder w.World.caller_rt ~name:"Nope" ~version:1 ());
       false
     with Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Unbound_interface _) -> true)

(* {1 Fragmentation} *)

let test_multi_packet_both_ways () =
  let big = String.init 6000 (fun i -> Char.chr (32 + (i mod 90))) in
  let out =
    with_rig (fun rig client ctx ->
        call rig client ctx "reverse" [ v_bytes big; Marshal.V_bytes Bytes.empty ])
  in
  match out with
  | [ Marshal.V_bytes b ] ->
    Alcotest.(check int) "size" 6000 (Bytes.length b);
    Alcotest.(check bool) "content" true
      (Bytes.to_string b = String.init 6000 (fun i -> big.[5999 - i]))
  | _ -> Alcotest.fail "bad result"

(* {1 Fault injection} *)

let fast_options =
  { Runtime.retransmit_after = Time.ms 20; max_retries = 50; backoff = None }

let every_nth n =
  let k = ref 0 in
  fun (_ : Bytes.t) ->
    incr k;
    if !k mod n = 0 then Hw.Ether_link.Drop else Hw.Ether_link.Deliver

let test_loss_recovery () =
  let out =
    with_rig ~options:fast_options (fun rig client ctx ->
        Hw.Ether_link.set_fault_injector rig.w.World.link (Some (every_nth 4));
        let results =
          List.map
            (fun i -> call rig client ctx "add" [ v_int i; v_int 1; v_int 0 ])
            [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        in
        Hw.Ether_link.set_fault_injector rig.w.World.link None;
        (results, Runtime.retransmissions rig.w.World.caller_rt))
  in
  let results, retrans = out in
  Alcotest.(check bool) "all correct despite 25% loss" true
    (List.for_all2 (fun i r -> r = [ v_int (i + 1) ]) [ 1; 2; 3; 4; 5; 6; 7; 8 ] results);
  Alcotest.(check bool) "retransmissions happened" true (retrans > 0)

let test_corruption_caught_by_checksum () =
  let out =
    with_rig ~options:fast_options (fun rig client ctx ->
        let corrupt_once =
          let fired = ref false in
          fun (f : Bytes.t) ->
            if (not !fired) && Bytes.length f > 80 then begin
              fired := true;
              Hw.Ether_link.Corrupt_payload
            end
            else Hw.Ether_link.Deliver
        in
        Hw.Ether_link.set_fault_injector rig.w.World.link (Some corrupt_once);
        let r =
          call rig client ctx "reverse" [ v_bytes "end to end argument"; Marshal.V_bytes Bytes.empty ]
        in
        (r, Rpc.Node.checksum_rejects rig.w.World.caller_node
            + Rpc.Node.checksum_rejects rig.w.World.server_node))
  in
  let r, rejects = out in
  Alcotest.(check bool) "correct despite corruption" true (r = [ v_bytes "tnemugra dne ot dne" ]);
  Alcotest.(check bool) "checksum caught it" true (rejects >= 1)

let test_corruption_passes_without_checksums () =
  (* §4.2.4's trade-off made concrete: disable UDP checksums and corrupt
     a result payload byte; the wrong data reaches the application. *)
  let config = { Config.default with udp_checksums = false } in
  let out =
    with_rig ~caller_config:config ~server_config:config (fun rig client ctx ->
        let corrupt_results (f : Bytes.t) =
          if Bytes.length f > 500 then Hw.Ether_link.Corrupt_payload else Hw.Ether_link.Deliver
        in
        Hw.Ether_link.set_fault_injector rig.w.World.link (Some corrupt_results);
        call rig client ctx "reverse"
          [ Marshal.V_bytes (Bytes.make 600 'a'); Marshal.V_bytes Bytes.empty ])
  in
  match out with
  | [ Marshal.V_bytes b ] ->
    Alcotest.(check bool) "silently corrupted data delivered" true
      (not (Bytes.equal b (Bytes.make 600 'a')))
  | _ -> Alcotest.fail "bad result"

let test_server_crash_fails_call () =
  let failed =
    with_rig
      ~options:{ Runtime.retransmit_after = Time.ms 10; max_retries = 5; backoff = None }
      (fun rig client ctx ->
        (* First call succeeds, then the server machine drops off the net. *)
        ignore (call rig client ctx "add" [ v_int 1; v_int 1; v_int 0 ]);
        Machine.power_off rig.w.World.server;
        try
          ignore (call rig client ctx "add" [ v_int 2; v_int 2; v_int 0 ]);
          false
        with Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Call_failed _) -> true)
  in
  Alcotest.(check bool) "crash surfaces as Call_failed" true failed

let test_duplicate_suppression () =
  (* Drop results so the caller retransmits a call whose execution
     already completed: the server must resend the retained result, not
     re-execute. *)
  let out =
    with_rig ~options:fast_options (fun rig client ctx ->
        let drop_first_result =
          let dropped = ref false in
          fun (f : Bytes.t) ->
            (* result packets here are ~82 bytes (add's sum); drop the
               first one we see. *)
            if (not !dropped) && Bytes.length f = 74 + 4 then begin
              dropped := true;
              Hw.Ether_link.Drop
            end
            else Hw.Ether_link.Deliver
        in
        Hw.Ether_link.set_fault_injector rig.w.World.link (Some drop_first_result);
        let r = call rig client ctx "add" [ v_int 5; v_int 6; v_int 0 ] in
        (r, Runtime.duplicates_suppressed rig.w.World.server_rt,
         Runtime.calls_served rig.w.World.server_rt))
  in
  let r, dups, served = out in
  Alcotest.(check bool) "result correct" true (r = [ v_int 11 ]);
  Alcotest.(check bool) "duplicate suppressed" true (dups >= 1);
  Alcotest.(check int) "executed exactly once" 1 served

let test_fast_path_used () =
  let fast, slow =
    with_rig (fun rig client ctx ->
        for i = 1 to 10 do
          ignore (call rig client ctx "add" [ v_int i; v_int i; v_int 0 ])
        done;
        (Rpc.Node.calls_fast_path rig.w.World.server_node,
         Rpc.Node.calls_slow_path rig.w.World.server_node))
  in
  Alcotest.(check int) "all calls on the fast path" 10 fast;
  Alcotest.(check int) "no slow path" 0 slow

let test_slow_path_when_workers_busy () =
  (* One worker + two concurrent clients: the second call arrives while
     the only worker is busy and takes the datalink path, then gets
     served from the backlog.  (No Test export: its workers would serve
     this space's calls too.) *)
  let w = World.create ~export_test:false () in
  Binder.export w.World.binder w.World.server_rt echo_interface ~impls:echo_impls ~workers:1;
  let binding = Binder.import w.World.binder w.World.caller_rt ~name:"Echo" ~version:3 () in
  let gate = Sim.Gate.create w.World.eng in
  let done_count = ref 0 in
  let results = ref [] in
  for i = 1 to 3 do
    Machine.spawn_thread w.World.caller ~name:"client" (fun () ->
        Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
            let client = Runtime.new_client w.World.caller_rt in
            let r =
              Runtime.call_by_name binding client ctx ~proc:"slow_add"
                ~args:[ v_int i; v_int 100; v_int 0 ]
            in
            results := (i, r) :: !results);
        incr done_count;
        if !done_count = 3 then Sim.Gate.open_ gate)
  done;
  World.run_until_quiet w gate;
  Alcotest.(check int) "all served" 3 (List.length !results);
  List.iter
    (fun (i, r) -> Alcotest.(check bool) "correct" true (r = [ v_int (i + 100) ]))
    !results;
  Alcotest.(check bool) "slow path exercised" true
    (Rpc.Node.calls_slow_path w.World.server_node >= 1)

let test_concurrent_clients_interleave () =
  let w = World.create ~workers:8 () in
  Binder.export w.World.binder w.World.server_rt echo_interface ~impls:echo_impls ~workers:8;
  let binding = Binder.import w.World.binder w.World.caller_rt ~name:"Echo" ~version:3 () in
  let gate = Sim.Gate.create w.World.eng in
  let done_count = ref 0 in
  let failures = ref 0 in
  let n_clients = 6 in
  for i = 1 to n_clients do
    Machine.spawn_thread w.World.caller ~name:"client" (fun () ->
        Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
            let client = Runtime.new_client w.World.caller_rt in
            for j = 1 to 10 do
              let r =
                Runtime.call_by_name binding client ctx ~proc:"add"
                  ~args:[ v_int (i * 1000); v_int j; v_int 0 ]
              in
              if r <> [ v_int ((i * 1000) + j) ] then incr failures
            done);
        incr done_count;
        if !done_count = n_clients then Sim.Gate.open_ gate)
  done;
  World.run_until_quiet w gate;
  Alcotest.(check int) "no cross-talk between activities" 0 !failures

let test_multiple_address_spaces () =
  (* Two user address spaces on the server machine, each exporting its
     own interface: the interrupt demultiplexer routes by the packet's
     server-space field, and worker pools don't bleed across spaces. *)
  let w = World.create ~export_test:false () in
  let rt_space2 = Runtime.create w.World.server_node ~space:2 in
  let doubler =
    Idl.interface ~name:"Doubler" ~version:1
      [ Idl.proc "go" [ Idl.arg "x" Idl.T_int; Idl.arg ~mode:Idl.Var_out "y" Idl.T_int ] ]
  in
  let tripler =
    Idl.interface ~name:"Tripler" ~version:1
      [ Idl.proc "go" [ Idl.arg "x" Idl.T_int; Idl.arg ~mode:Idl.Var_out "y" Idl.T_int ] ]
  in
  let mul k : Runtime.impl array =
    [|
      (fun _ctx args ->
        match args with
        | [ Marshal.V_int x; _ ] -> [ Marshal.V_int (Int32.mul x (Int32.of_int k)) ]
        | _ -> Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure "mul"));
    |]
  in
  Binder.export w.World.binder w.World.server_rt doubler ~impls:(mul 2) ~workers:2;
  Binder.export w.World.binder rt_space2 tripler ~impls:(mul 3) ~workers:2;
  let b2 = Binder.import w.World.binder w.World.caller_rt ~name:"Doubler" ~version:1 () in
  let b3 = Binder.import w.World.binder w.World.caller_rt ~name:"Tripler" ~version:1 () in
  let gate = Sim.Gate.create w.World.eng in
  let results = ref [] in
  Machine.spawn_thread w.World.caller ~name:"multi-space" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
          let client = Runtime.new_client w.World.caller_rt in
          let go b = Runtime.call_by_name b client ctx ~proc:"go" ~args:[ v_int 7; v_int 0 ] in
          results := [ go b2; go b3; go b2 ]);
      Sim.Gate.open_ gate);
  World.run_until_quiet w gate;
  Alcotest.(check bool) "spaces routed independently" true
    (!results = [ [ v_int 14 ]; [ v_int 21 ]; [ v_int 14 ] ]);
  Alcotest.(check int) "space 1 served 2" 2 (Runtime.calls_served w.World.server_rt);
  Alcotest.(check int) "space 2 served 1" 1 (Runtime.calls_served rt_space2)

let test_one_runtime_per_space () =
  (* A (node, space) pair has one runtime: it alone owns the space's
     server threads and the calls the interrupt routine hands them. *)
  let w = World.create ~export_test:false () in
  let taken nd ~space =
    match Runtime.create nd ~space with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "server's space 1 taken" true
    (taken w.World.server_node ~space:(Runtime.space w.World.server_rt));
  Alcotest.(check bool) "caller's space 1 taken" true
    (taken w.World.caller_node ~space:(Runtime.space w.World.caller_rt));
  Alcotest.(check bool) "a new space is free" false (taken w.World.server_node ~space:2);
  Alcotest.(check bool) "and then taken" true (taken w.World.server_node ~space:2)

let test_local_transport_semantics () =
  (* Export on the caller machine too: import resolves to the shared-
     memory transport and the same calls produce the same answers.
     Three callers share the export's one local server thread, so two
     of them wait in its backlog. *)
  let w = World.create () in
  Binder.export w.World.binder w.World.caller_rt echo_interface ~impls:echo_impls ~workers:2;
  let binding = Binder.import w.World.binder w.World.caller_rt ~name:"Echo" ~version:3 () in
  Alcotest.(check bool) "binding is local" true (Runtime.is_local binding);
  let gate = Sim.Gate.create w.World.eng in
  let callers = 3 in
  let finished = ref 0 in
  let out = ref [] in
  for i = 1 to callers do
    Machine.spawn_thread w.World.caller ~name:(Printf.sprintf "local-caller%d" i) (fun () ->
        Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
            let client = Runtime.new_client w.World.caller_rt in
            let sum =
              Runtime.call_by_name binding client ctx ~proc:"add"
                ~args:[ v_int i; v_int (10 * i); v_int 0 ]
            in
            let reversed =
              Runtime.call_by_name binding client ctx ~proc:"reverse"
                ~args:[ v_bytes (Printf.sprintf "abc%d" i); Marshal.V_bytes Bytes.empty ]
            in
            (* Built before [!out] is read: the calls block, and the
               other callers cons their results meanwhile. *)
            let r = (i, sum, reversed) in
            out := r :: !out);
        incr finished;
        if !finished = callers then Sim.Gate.open_ gate)
  done;
  World.run_until_quiet w gate;
  Alcotest.(check int) "every caller returned" callers (List.length !out);
  for i = 1 to callers do
    let _, sum, reversed = List.find (fun (j, _, _) -> j = i) !out in
    Alcotest.(check bool) (Printf.sprintf "local add %d" i) true (sum = [ v_int (11 * i) ]);
    Alcotest.(check bool)
      (Printf.sprintf "local reverse %d" i)
      true
      (reversed = [ v_bytes (Printf.sprintf "%dcba" i) ])
  done;
  Alcotest.(check int) "calls served" (2 * callers) (Runtime.calls_served w.World.caller_rt)

let test_local_null_latency () =
  (* §2.2 footnote: local RPC to Null() takes 937 us. *)
  let w = World.create () in
  Binder.export w.World.binder w.World.caller_rt
    (Idl.interface ~name:"LocalTest" ~version:1 [ Idl.proc "Null" [] ])
    ~impls:
      [|
        (fun ctx _ ->
          Cpu_set.charge ctx ~cat:"runtime" ~label:"Null (the server procedure)" (Time.us 10);
          []);
      |]
    ~workers:1;
  let binding = Binder.import w.World.binder w.World.caller_rt ~name:"LocalTest" ~version:1 () in
  let gate = Sim.Gate.create w.World.eng in
  let lat = ref Time.zero_span in
  Machine.spawn_thread w.World.caller ~name:"local-null" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
          let client = Runtime.new_client w.World.caller_rt in
          let once () = ignore (Runtime.call_by_name binding client ctx ~proc:"Null" ~args:[]) in
          once ();
          once ();
          let t0 = Engine.now w.World.eng in
          once ();
          lat := Time.diff (Engine.now w.World.eng) t0);
      Sim.Gate.open_ gate);
  World.run_until_quiet w gate;
  (* 937 minus the 16 us caller loop the paper's figure includes. *)
  Alcotest.(check (float 40.)) "local Null ~921us" 921. (Time.to_us !lat)

(* {1 Paper headline latencies (guard against calibration drift)} *)

let test_null_latency_calibration () =
  let w = World.create () in
  let lat = Driver.measure_single_call w ~proc:Driver.Null () in
  Alcotest.(check (float 135.)) "Null within 5% of 2.66ms" 2660. (Time.to_us lat)

let test_max_result_latency_calibration () =
  let w = World.create () in
  let lat = Driver.measure_single_call w ~proc:Driver.Max_result () in
  Alcotest.(check (float 320.)) "MaxResult within 5% of 6.35ms" 6350. (Time.to_us lat)

let suite =
  [
    Alcotest.test_case "add over the wire" `Quick test_add;
    Alcotest.test_case "reverse (VAR IN / VAR OUT)" `Quick test_reverse;
    Alcotest.test_case "Text.T round trip" `Quick test_text;
    Alcotest.test_case "sequential calls, one activity" `Quick test_sequential_calls_one_client;
    Alcotest.test_case "server exception surfaces" `Quick test_server_exception;
    Alcotest.test_case "bad procedure index" `Quick test_bad_procedure;
    Alcotest.test_case "unbound import" `Quick test_unbound_import;
    Alcotest.test_case "multi-packet call and result" `Quick test_multi_packet_both_ways;
    Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
    Alcotest.test_case "corruption caught by checksum" `Quick test_corruption_caught_by_checksum;
    Alcotest.test_case "corruption without checksums" `Quick
      test_corruption_passes_without_checksums;
    Alcotest.test_case "server crash" `Quick test_server_crash_fails_call;
    Alcotest.test_case "duplicate suppression" `Quick test_duplicate_suppression;
    Alcotest.test_case "fast path used" `Quick test_fast_path_used;
    Alcotest.test_case "slow path when workers busy" `Quick test_slow_path_when_workers_busy;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients_interleave;
    Alcotest.test_case "multiple address spaces" `Quick test_multiple_address_spaces;
    Alcotest.test_case "one runtime per space" `Quick test_one_runtime_per_space;
    Alcotest.test_case "local transport semantics" `Quick test_local_transport_semantics;
    Alcotest.test_case "local Null latency (937us)" `Quick test_local_null_latency;
    Alcotest.test_case "Null latency calibration" `Quick test_null_latency_calibration;
    Alcotest.test_case "MaxResult latency calibration" `Quick test_max_result_latency_calibration;
  ]
