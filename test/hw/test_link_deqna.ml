module Engine = Sim.Engine
module Time = Sim.Time
module Config = Hw.Config
module Timing = Hw.Timing
module Ether_link = Hw.Ether_link
module Deqna = Hw.Deqna
module Mac = Net.Mac

let us = Time.us

let frame ~dst ~src ~len =
  let w = Wire.Bytebuf.Writer.create len in
  Net.Ethernet.encode w { Net.Ethernet.dst; src; ethertype = Net.Ethernet.ethertype_ipv4 };
  Wire.Bytebuf.Writer.zeros w (len - Net.Ethernet.header_size);
  Wire.Bytebuf.Writer.contents w

(* {1 Link} *)

let test_link_delivery_and_occupancy () =
  let eng = Engine.create () in
  let link = Ether_link.create eng ~mbps:10. in
  let m1 = Mac.of_station 1 and m2 = Mac.of_station 2 in
  let arrivals = ref [] in
  let _s2 =
    Ether_link.attach link ~mac:m2 ~on_frame_start:(fun ~frame ~call:_ ~wire ->
        arrivals := (Time.since_start_us (Engine.now eng), Bytes.length frame, Time.to_us wire) :: !arrivals)
  in
  let _s1 =
    Ether_link.attach link ~mac:m1 ~on_frame_start:(fun ~frame:_ ~call:_ ~wire:_ -> ())
  in
  Engine.spawn eng (fun () ->
      Ether_link.transmit link ~src:m1 (frame ~dst:m2 ~src:m1 ~len:74);
      Ether_link.transmit link ~src:m1 (frame ~dst:m2 ~src:m1 ~len:1514));
  Engine.run eng;
  (match List.rev !arrivals with
  | [ (t1, l1, w1); (t2, l2, w2) ] ->
    Alcotest.(check (float 0.1)) "first starts immediately" 0. t1;
    Alcotest.(check int) "first length" 74 l1;
    Alcotest.(check (float 0.1)) "first wire time" 59.2 w1;
    (* Second frame waits for wire + IFG of the first. *)
    Alcotest.(check (float 0.1)) "second deferred" 68.8 t2;
    Alcotest.(check int) "second length" 1514 l2;
    Alcotest.(check (float 0.5)) "second wire time" 1211.2 w2
  | l -> Alcotest.fail (Printf.sprintf "expected 2 arrivals, got %d" (List.length l)));
  Alcotest.(check int) "frames counted" 2 (Ether_link.frames_carried link)

let test_link_unknown_destination () =
  let eng = Engine.create () in
  let link = Ether_link.create eng ~mbps:10. in
  let m1 = Mac.of_station 1 in
  let _s1 =
    Ether_link.attach link ~mac:m1 ~on_frame_start:(fun ~frame:_ ~call:_ ~wire:_ -> ())
  in
  Engine.spawn eng (fun () ->
      Ether_link.transmit link ~src:m1 (frame ~dst:(Mac.of_station 9) ~src:m1 ~len:74));
  Engine.run eng;
  Alcotest.(check int) "carried but undelivered" 1 (Ether_link.frames_carried link)

let test_link_broadcast () =
  let eng = Engine.create () in
  let link = Ether_link.create eng ~mbps:10. in
  let hits = ref 0 in
  let attach n =
    ignore
      (Ether_link.attach link ~mac:(Mac.of_station n)
         ~on_frame_start:(fun ~frame:_ ~call:_ ~wire:_ -> incr hits))
  in
  attach 1;
  attach 2;
  attach 3;
  Engine.spawn eng (fun () ->
      Ether_link.transmit link ~src:(Mac.of_station 1)
        (frame ~dst:Mac.broadcast ~src:(Mac.of_station 1) ~len:74));
  Engine.run eng;
  Alcotest.(check int) "everyone but the sender" 2 !hits

let test_link_fault_injection () =
  let eng = Engine.create () in
  let link = Ether_link.create eng ~mbps:10. in
  let m1 = Mac.of_station 1 and m2 = Mac.of_station 2 in
  let received = ref [] in
  let _s2 =
    Ether_link.attach link ~mac:m2 ~on_frame_start:(fun ~frame ~call:_ ~wire:_ ->
        received := frame :: !received)
  in
  let plan = ref [ Ether_link.Drop; Ether_link.Corrupt; Ether_link.Deliver ] in
  Ether_link.set_fault_injector link
    (Some
       (fun _ ->
         match !plan with
         | f :: rest ->
           plan := rest;
           f
         | [] -> Ether_link.Deliver));
  let original = frame ~dst:m2 ~src:m1 ~len:100 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        Ether_link.transmit link ~src:m1 original
      done);
  Engine.run eng;
  Alcotest.(check int) "dropped counted" 1 (Ether_link.frames_dropped link);
  Alcotest.(check int) "corrupted counted" 1 (Ether_link.frames_corrupted link);
  match List.rev !received with
  | [ corrupted; clean ] ->
    Alcotest.(check bool) "corrupted differs" false (Bytes.equal corrupted original);
    Alcotest.(check bool) "clean intact" true (Bytes.equal clean original);
    Alcotest.(check bool) "headers preserved by corruption" true
      (Bytes.equal (Bytes.sub corrupted 0 14) (Bytes.sub original 0 14))
  | l -> Alcotest.fail (Printf.sprintf "expected 2 deliveries, got %d" (List.length l))

(* {1 DEQNA} *)

type rig = {
  eng : Engine.t;
  link : Ether_link.t;
  a : Deqna.t;
  b : Deqna.t;
}

let make_rig ?(config = Config.default) () =
  let eng = Engine.create () in
  let timing = Timing.create config in
  let link = Ether_link.create eng ~mbps:config.Config.ethernet_mbps in
  let obs = Obs.Ctx.create () in
  let mk n =
    let qbus = Sim.Resource.create eng in
    Deqna.create eng timing ~link ~qbus ~mac:(Mac.of_station n) ~obs ()
  in
  { eng; link; a = mk 1; b = mk 2 }

let test_deqna_store_and_forward_timing () =
  let r = make_rig () in
  let received_at = ref 0. and received_call = ref Sim.Trace.no_call in
  Deqna.set_interrupt_handler r.b (fun () ->
      received_at := Time.since_start_us (Engine.now r.eng);
      Option.iter (fun (_, call) -> received_call := call) (Deqna.take_rx r.b);
      Deqna.interrupt_done r.b);
  Deqna.add_rx_credits r.b 4;
  Engine.spawn r.eng (fun () ->
      Deqna.queue_tx ~call:7 r.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:74);
      Deqna.start_transmit r.a);
  Engine.run r.eng;
  (* qbus tx 70 + wire 59.2 + qbus rx 80.2, fully serial. *)
  Alcotest.(check (float 3.)) "store-and-forward latency" 209.4 !received_at;
  Alcotest.(check int) "the frame's call crosses the wire" 7 !received_call;
  Alcotest.(check int) "tx counted" 1 (Deqna.tx_frames r.a);
  Alcotest.(check int) "rx counted" 1 (Deqna.rx_frames r.b)

let test_deqna_cut_through_faster () =
  let serial = make_rig () in
  let overlap = make_rig ~config:{ Config.default with cut_through = true } () in
  let run rig =
    let at = ref 0. in
    Deqna.set_interrupt_handler rig.b (fun () ->
        at := Time.since_start_us (Engine.now rig.eng);
        ignore (Deqna.take_rx rig.b);
        Deqna.interrupt_done rig.b);
    Deqna.add_rx_credits rig.b 4;
    Engine.spawn rig.eng (fun () ->
        Deqna.queue_tx rig.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:1514);
        Deqna.start_transmit rig.a);
    Engine.run rig.eng;
    !at
  in
  let t_serial = run serial in
  let t_overlap = run overlap in
  (* Serial: 815 + 1211 + 836 = 2862; overlapped: ~max(815,1211)+max(1211,836)
     collapses to ~wire + setup ≈ 1230.  The paper's §4.2.1 estimates
     1800 us saved on a full packet; accept a broad band. *)
  Alcotest.(check (float 60.)) "serial latency" 2862. t_serial;
  Alcotest.(check bool) "cut-through saves >1500us" true (t_serial -. t_overlap > 1500.)

let test_deqna_overrun_drop () =
  (* With a single staging slot, two large frames arriving back-to-back
     overrun while the engine is still writing the first to memory. *)
  let config = { Config.default with deqna_staging_frames = 1 } in
  let r = make_rig ~config () in
  (* Station 3 also transmits to b. *)
  let timing = Timing.create config in
  let qbus3 = Sim.Resource.create r.eng in
  let c =
    Deqna.create r.eng timing ~link:r.link ~qbus:qbus3 ~mac:(Mac.of_station 3)
      ~obs:(Obs.Ctx.create ()) ()
  in
  Deqna.set_interrupt_handler r.b (fun () ->
      let rec drain () =
        match Deqna.take_rx r.b with
        | Some _ -> drain ()
        | None -> ()
      in
      drain ();
      Deqna.interrupt_done r.b);
  Deqna.add_rx_credits r.b 8;
  Engine.spawn r.eng (fun () ->
      Deqna.queue_tx r.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:1514);
      Deqna.start_transmit r.a);
  Engine.spawn r.eng (fun () ->
      Deqna.queue_tx c (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 3) ~len:1514);
      Deqna.start_transmit c);
  Engine.run r.eng;
  Alcotest.(check int) "second frame overruns" 1 (Deqna.rx_overruns r.b);
  Alcotest.(check int) "one received" 1 (Deqna.rx_frames r.b)

let test_deqna_no_buffer_drop () =
  let r = make_rig () in
  Deqna.set_interrupt_handler r.b (fun () -> Deqna.interrupt_done r.b);
  (* no credits supplied *)
  Engine.spawn r.eng (fun () ->
      Deqna.queue_tx r.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:74);
      Deqna.start_transmit r.a);
  Engine.run r.eng;
  Alcotest.(check int) "dropped for want of buffer" 1 (Deqna.rx_no_buffer r.b);
  Alcotest.(check int) "none received" 0 (Deqna.rx_frames r.b)

let test_deqna_interrupt_coalescing () =
  let r = make_rig () in
  let interrupts = ref 0 in
  let drained = ref 0 in
  Deqna.set_interrupt_handler r.b (fun () ->
      incr interrupts;
      (* A slow handler: frames arriving meanwhile are picked up by the
         same interrupt. *)
      Engine.delay r.eng (Time.ms 5);
      let rec drain () =
        match Deqna.take_rx r.b with
        | Some _ ->
          incr drained;
          drain ()
        | None -> ()
      in
      drain ();
      Deqna.interrupt_done r.b);
  Deqna.add_rx_credits r.b 16;
  Engine.spawn r.eng (fun () ->
      (* Space the frames so the store-and-forward receive engine keeps
         up (it is busy ~139 us per 74-byte frame) while the 5 ms
         handler is still running. *)
      for _ = 1 to 5 do
        Deqna.queue_tx r.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:74);
        Deqna.start_transmit r.a;
        Engine.delay r.eng (us 300)
      done);
  Engine.run r.eng;
  Alcotest.(check int) "no overruns at this spacing" 0 (Deqna.rx_overruns r.b);
  Alcotest.(check int) "all frames drained" 5 !drained;
  Alcotest.(check int) "one coalesced interrupt" 1 !interrupts

let test_deqna_queue_while_busy () =
  let r = make_rig () in
  let got = ref 0 in
  Deqna.set_interrupt_handler r.b (fun () ->
      let rec drain () =
        match Deqna.take_rx r.b with
        | Some _ ->
          incr got;
          drain ()
        | None -> ()
      in
      drain ();
      Deqna.interrupt_done r.b);
  Deqna.add_rx_credits r.b 16;
  Engine.spawn r.eng (fun () ->
      Deqna.queue_tx r.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:74);
      Deqna.start_transmit r.a;
      (* Queue more while the engine is mid-frame; a second prod while
         running must not lose work.  (300 us keeps the receiver's
         store-and-forward engine from overrunning.) *)
      Engine.delay r.eng (us 300);
      Deqna.queue_tx r.a (frame ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len:74);
      Deqna.start_transmit r.a);
  Engine.run r.eng;
  Alcotest.(check int) "both transmitted" 2 !got

let suite =
  [
    Alcotest.test_case "link delivery and occupancy" `Quick test_link_delivery_and_occupancy;
    Alcotest.test_case "link unknown destination" `Quick test_link_unknown_destination;
    Alcotest.test_case "link broadcast" `Quick test_link_broadcast;
    Alcotest.test_case "link fault injection" `Quick test_link_fault_injection;
    Alcotest.test_case "deqna store-and-forward timing" `Quick test_deqna_store_and_forward_timing;
    Alcotest.test_case "deqna cut-through faster" `Quick test_deqna_cut_through_faster;
    Alcotest.test_case "deqna overrun drop" `Quick test_deqna_overrun_drop;
    Alcotest.test_case "deqna no-buffer drop" `Quick test_deqna_no_buffer_drop;
    Alcotest.test_case "deqna interrupt coalescing" `Quick test_deqna_interrupt_coalescing;
    Alcotest.test_case "deqna queue while busy" `Quick test_deqna_queue_while_busy;
  ]
