module Engine = Sim.Engine
module Time = Sim.Time
module Config = Hw.Config
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Driver = Nub.Driver
module Waiter = Nub.Waiter
module Bufpool = Nub.Bufpool

let us = Time.us
let ip = Net.Ipv4.Addr.of_string

(* {1 Bufpool} *)

let test_bufpool () =
  let p = Bufpool.create ~capacity:3 () in
  Alcotest.(check int) "available" 3 (Bufpool.available p);
  Alcotest.(check bool) "alloc 1" true (Bufpool.try_alloc p);
  Alcotest.(check bool) "alloc 2" true (Bufpool.try_alloc p);
  Alcotest.(check bool) "alloc 3" true (Bufpool.try_alloc p);
  Alcotest.(check bool) "exhausted" false (Bufpool.try_alloc p);
  Alcotest.(check int) "exhaustion counted" 1 (Bufpool.exhaustions p);
  Alcotest.(check int) "in use" 3 (Bufpool.in_use p);
  Bufpool.free p;
  Alcotest.(check bool) "alloc after free" true (Bufpool.try_alloc p);
  Bufpool.free p;
  Bufpool.free p;
  Bufpool.free p;
  Alcotest.(check bool) "double free detected" true
    (try
       Bufpool.free p;
       false
     with Invalid_argument _ -> true)

(* {1 Two-machine world helpers} *)

type world = { eng : Engine.t; link : Hw.Ether_link.t; a : Machine.t; b : Machine.t }

let make_world ?(config = Config.default) () =
  let eng = Engine.create () in
  let link = Hw.Ether_link.create eng ~mbps:config.Config.ethernet_mbps in
  let a = Machine.create eng ~name:"caller" ~config ~link ~station:1 ~ip:(ip "16.0.0.1") () in
  let b = Machine.create eng ~name:"server" ~config ~link ~station:2 ~ip:(ip "16.0.0.2") () in
  { eng; link; a; b }

let make_frame ~src ~dst ~len =
  let w = Wire.Bytebuf.Writer.create len in
  Net.Ethernet.encode w
    { Net.Ethernet.dst = Machine.mac dst; src = Machine.mac src; ethertype = Net.Ethernet.ethertype_ipv4 };
  Wire.Bytebuf.Writer.zeros w (len - Net.Ethernet.header_size);
  Wire.Bytebuf.Writer.contents w

(* {1 Driver} *)

let test_driver_send_and_fast_path () =
  let w = make_world () in
  let got = ref [] in
  Driver.set_fast_handler (Machine.driver w.b) (fun ~ctx ~frame ->
      Cpu_set.charge ctx ~cat:"send+receive" ~label:"Handle interrupt for received pkt"
        (Hw.Timing.rx_demux (Machine.timing w.b));
      got := (Time.since_start_us (Engine.now w.eng), Bytes.length frame) :: !got;
      Driver.Consumed);
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          Driver.send (Machine.driver w.a) ~ctx (make_frame ~src:w.a ~dst:w.b ~len:74)));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 10));
  (match !got with
  | [ (at, len) ] ->
    Alcotest.(check int) "frame length" 74 len;
    (* trap 37 + queue 39 + IPI 10 + 76 + 22 + qbus 70 + wire 59 +
       qbus 80 + io 14 + demux 177 (charged before the timestamp). *)
    Alcotest.(check (float 30.)) "fast path latency" 584. at
  | l -> Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l)));
  Alcotest.(check int) "interrupt taken" 1 (Driver.interrupts_taken (Machine.driver w.b));
  Alcotest.(check int) "no slow path" 0 (Driver.frames_to_datalink (Machine.driver w.b))

let test_driver_slow_path () =
  let w = make_world () in
  let slow = ref 0 in
  (* Default fast handler punts everything. *)
  Driver.set_datalink_handler (Machine.driver w.b) (fun ~ctx:_ ~frame:_ -> incr slow);
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          Driver.send (Machine.driver w.a) ~ctx (make_frame ~src:w.a ~dst:w.b ~len:74)));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 10));
  Alcotest.(check int) "datalink handled" 1 !slow;
  Alcotest.(check int) "counted" 1 (Driver.frames_to_datalink (Machine.driver w.b))

let test_driver_buffer_replacement_keeps_credits () =
  let w = make_world () in
  Driver.set_fast_handler (Machine.driver w.b) (fun ~ctx:_ ~frame:_ ->
      (* Consume and immediately free, as Ender would eventually. *)
      Bufpool.free (Machine.pool w.b);
      Driver.Consumed);
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          for _ = 1 to 20 do
            Driver.send (Machine.driver w.a) ~ctx (make_frame ~src:w.a ~dst:w.b ~len:74);
            (* Pace sends so the store-and-forward receiver keeps up. *)
            Engine.delay w.eng (us 400)
          done));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 50));
  Alcotest.(check int) "all 20 received" 20 (Driver.frames_received (Machine.driver w.b));
  Alcotest.(check int) "no pool exhaustion" 0 (Bufpool.exhaustions (Machine.pool w.b))

(* {1 Waiter} *)

let test_waiter_blocking_cost () =
  let w = make_world () in
  let m = w.a in
  let waiter = Machine.new_waiter m in
  let woke_at = ref 0. and got = ref 0 in
  Machine.spawn_thread m (fun () ->
      Cpu_set.with_cpu (Machine.cpus m) (fun ctx ->
          got := Waiter.wait waiter ctx;
          woke_at := Time.since_start_us (Engine.now w.eng)));
  Machine.spawn_thread m ~name:"waker" (fun () ->
      Engine.delay w.eng (us 100);
      Cpu_set.with_cpu (Machine.cpus m) (fun ctx -> Waiter.notify waiter ~waker:ctx 42));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 5));
  Alcotest.(check int) "the notified value" 42 !got;
  (* 100 (delay) + 220 (wakeup charged on waker) + 15 (dispatch). *)
  Alcotest.(check (float 5.)) "wakeup + dispatch costs" 335. !woke_at

let test_waiter_notify_before_wait () =
  let w = make_world () in
  let waiter = Machine.new_waiter w.a in
  let got = ref [] in
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          Waiter.notify waiter ~waker:ctx "first";
          Waiter.notify waiter ~waker:ctx "second";
          let a = Waiter.wait waiter ctx in
          let b = Waiter.poll waiter ctx in
          let c = Waiter.poll waiter ctx in
          got := [ Some a; b; c ]));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 5));
  Alcotest.(check (list (option string)))
    "queued values taken in order, then none" [ Some "first"; Some "second"; None ] !got

let test_waiter_timeout () =
  let w = make_world () in
  let waiter = Machine.new_waiter w.a in
  let outcome = ref (Some ()) in
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          outcome := Waiter.wait_timeout waiter ctx ~timeout:(us 500)));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 5));
  Alcotest.(check bool) "timed out" true (!outcome = None)

let test_waiter_busy_wait () =
  let config = { Config.default with busy_wait = true } in
  let w = make_world ~config () in
  let waiter = Machine.new_waiter w.a in
  let woke_at = ref 0. and got = ref 0 in
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          got := Waiter.wait waiter ctx;
          woke_at := Time.since_start_us (Engine.now w.eng)));
  Machine.spawn_thread w.a ~name:"waker" (fun () ->
      Engine.delay w.eng (us 100);
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx -> Waiter.notify waiter ~waker:ctx 7));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 5));
  Alcotest.(check int) "the notified value" 7 !got;
  (* Spin detects the flag within one 5 us poll of the 10 us flag set. *)
  Alcotest.(check bool) "busy wait wakes fast" true (!woke_at < 130.);
  Alcotest.(check bool) "spin costs some cpu" true (!woke_at >= 100.)

let wake_hist m =
  Obs.Metrics.Registry.histogram (Machine.obs m).Obs.Ctx.metrics ~site:"caller"
    ~name:"wakeup_latency_us"

let test_waiter_stale_mark_not_inflated () =
  let w = make_world () in
  let m = w.a in
  let waiter = Machine.new_waiter m in
  let h = wake_hist m in
  (* A notification nobody is waiting for arms the waiter at t=0. *)
  Machine.spawn_thread m ~name:"early-waker" (fun () ->
      Cpu_set.with_cpu (Machine.cpus m) (fun ctx -> Waiter.notify waiter ~waker:ctx ()));
  Machine.spawn_thread m (fun () ->
      Engine.delay w.eng (us 1000);
      Cpu_set.with_cpu (Machine.cpus m) (fun ctx ->
          (* Fast-path consumption must record the 1000 us sample AND
             clear the mark... *)
          Waiter.wait waiter ctx;
          Engine.delay w.eng (us 1000);
          (* ...so this second, blocked wakeup is measured from the late
             waker's notify, not from t=0. *)
          Waiter.wait waiter ctx));
  Machine.spawn_thread m ~name:"late-waker" (fun () ->
      Engine.delay w.eng (us 3000);
      Cpu_set.with_cpu (Machine.cpus m) (fun ctx -> Waiter.notify waiter ~waker:ctx ()));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 10));
  Alcotest.(check int) "both wakeups sampled" 2 (Obs.Metrics.Histogram.count h);
  (* With the stale mark kept, the second sample would read ~3200 us
     (resume time minus the t=0 mark) instead of the real ~235 us. *)
  Alcotest.(check bool) "no sample inflated by a stale mark" true
    (Obs.Metrics.Histogram.max_value h < 1500.)

let test_waiter_spin_records_latency () =
  let config = { Config.default with busy_wait = true } in
  let w = make_world ~config () in
  let waiter = Machine.new_waiter w.a in
  let h = wake_hist w.a in
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx -> Waiter.wait waiter ctx));
  Machine.spawn_thread w.a ~name:"waker" (fun () ->
      Engine.delay w.eng (us 100);
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx -> Waiter.notify waiter ~waker:ctx ()));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 5));
  (* The busy-wait path feeds the same histogram as the blocking path:
     one sample, bounded by the cheap spin wakeup plus one poll. *)
  Alcotest.(check int) "spin wakeup sampled" 1 (Obs.Metrics.Histogram.count h);
  Alcotest.(check bool) "spin latency is the short path" true
    (Obs.Metrics.Histogram.max_value h < 50.)

let test_waiter_timeout_leaves_no_mark () =
  let w = make_world () in
  let waiter = Machine.new_waiter w.a in
  let h = wake_hist w.a in
  Machine.spawn_thread w.a (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx ->
          (* Time out with nothing pending, then go through a real
             notify/wake cycle: exactly one sample, measured from the
             notify. *)
          (match Waiter.wait_timeout waiter ctx ~timeout:(us 500) with
          | None -> ()
          | Some () -> Alcotest.fail "unexpected wakeup");
          Waiter.wait waiter ctx));
  Machine.spawn_thread w.a ~name:"waker" (fun () ->
      Engine.delay w.eng (us 2000);
      Cpu_set.with_cpu (Machine.cpus w.a) (fun ctx -> Waiter.notify waiter ~waker:ctx ()));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 10));
  Alcotest.(check int) "one wakeup sampled" 1 (Obs.Metrics.Histogram.count h);
  Alcotest.(check bool) "sample measured from the notify" true
    (Obs.Metrics.Histogram.max_value h < 1500.)

let test_waiter_pool () =
  (* Two server threads park in a pool; the first value offered goes to
     the longest-parked one.  With both busy, an offer finds nobody and
     the value waits in the backlog for whichever thread asks next. *)
  let w = make_world () in
  let m = w.a in
  let pool = Waiter.Pool.create () in
  let served = ref [] in
  let server name =
    Machine.spawn_thread m ~name (fun () ->
        Cpu_set.with_cpu (Machine.cpus m) (fun ctx ->
            let me = Machine.new_waiter m in
            for _ = 1 to 2 do
              let v = Waiter.Pool.next pool me ctx in
              let r = (name, v) in
              served := r :: !served;
              Engine.delay w.eng (us 1000)
            done))
  in
  server "s1";
  server "s2";
  let offers = ref [] in
  Machine.spawn_thread m ~name:"client" (fun () ->
      Engine.delay w.eng (us 100);
      Cpu_set.with_cpu (Machine.cpus m) (fun ctx ->
          List.iter
            (fun v ->
              let taken = Waiter.Pool.offer pool ~waker:ctx v in
              if not taken then Waiter.Pool.queue pool v;
              offers := taken :: !offers)
            [ 1; 2; 3; 4 ]));
  Engine.run_until w.eng (Time.add Time.zero (Time.ms 10));
  Alcotest.(check (list bool)) "two parked threads, then none" [ true; true; false; false ]
    (List.rev !offers);
  Alcotest.(check (list (pair string int)))
    "FIFO hand-off, then the backlog in order"
    [ ("s1", 1); ("s2", 2); ("s1", 3); ("s2", 4) ]
    (List.rev !served)

let test_machine_validation () =
  let eng = Engine.create () in
  let link = Hw.Ether_link.create eng ~mbps:10. in
  Alcotest.(check bool) "bad config rejected" true
    (try
       ignore
         (Machine.create eng ~name:"x"
            ~config:{ Config.default with cpus = 0 }
            ~link ~station:1 ~ip:(ip "16.0.0.1") ());
       false
     with Invalid_argument _ -> true)

let test_idle_load () =
  let w = make_world () in
  Machine.start_idle_load w.a;
  Engine.run_until w.eng (Time.add Time.zero (Time.sec 2));
  let busy = Machine.average_busy_cpus w.a ~upto:(Engine.now w.eng) in
  Alcotest.(check bool) "idle load near 0.15 CPUs" true (busy > 0.08 && busy < 0.25)

let suite =
  [
    Alcotest.test_case "bufpool" `Quick test_bufpool;
    Alcotest.test_case "driver send + fast path" `Quick test_driver_send_and_fast_path;
    Alcotest.test_case "driver slow path" `Quick test_driver_slow_path;
    Alcotest.test_case "driver buffer replacement" `Quick test_driver_buffer_replacement_keeps_credits;
    Alcotest.test_case "waiter blocking cost" `Quick test_waiter_blocking_cost;
    Alcotest.test_case "waiter notify before wait" `Quick test_waiter_notify_before_wait;
    Alcotest.test_case "waiter timeout" `Quick test_waiter_timeout;
    Alcotest.test_case "waiter busy wait" `Quick test_waiter_busy_wait;
    Alcotest.test_case "waiter stale mark not inflated" `Quick test_waiter_stale_mark_not_inflated;
    Alcotest.test_case "waiter spin records latency" `Quick test_waiter_spin_records_latency;
    Alcotest.test_case "waiter timeout leaves no mark" `Quick test_waiter_timeout_leaves_no_mark;
    Alcotest.test_case "waiter pool" `Quick test_waiter_pool;
    Alcotest.test_case "machine validation" `Quick test_machine_validation;
    Alcotest.test_case "idle load" `Quick test_idle_load;
  ]

let () = Alcotest.run "nub" [ ("nub", suite) ]
