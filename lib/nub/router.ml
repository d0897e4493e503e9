module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set

type port = A | B

type port_state = {
  deqna : Hw.Deqna.t;
  p_ip : Net.Ipv4.Addr.t;
  arp : (Net.Ipv4.Addr.t, Net.Mac.t) Hashtbl.t;
}

type route = { prefix : int32; mask : int32; via : port }

type t = {
  eng : Engine.t;
  cpu : Cpu_set.t;
  pool : Bufpool.t;
  pa : port_state;
  pb : port_state;
  mutable routes : route list;
  forward_cost : Time.span;
  c_fwd : Sim.Stats.Counter.t;
  c_no_route : Sim.Stats.Counter.t;
  c_ttl : Sim.Stats.Counter.t;
  c_no_arp : Sim.Stats.Counter.t;
  c_not_ip : Sim.Stats.Counter.t;
}

let port_state t = function
  | A -> t.pa
  | B -> t.pb

let port_mac t p = Hw.Deqna.mac (port_state t p).deqna
let port_ip t p = (port_state t p).p_ip

let mask_of_bits bits =
  if bits = 0 then 0l else Int32.shift_left (-1l) (32 - bits)

let add_route t addr ~mask_bits via =
  let mask = mask_of_bits mask_bits in
  let prefix = Int32.logand (Net.Ipv4.Addr.to_int32 addr) mask in
  (* keep longest prefixes first *)
  t.routes <-
    List.sort
      (fun a b -> compare b.mask a.mask)
      ({ prefix; mask; via } :: t.routes)

let add_host t p ip mac = Hashtbl.replace (port_state t p).arp ip mac

let lookup_route t dst =
  let d = Net.Ipv4.Addr.to_int32 dst in
  List.find_opt (fun r -> Int32.equal (Int32.logand d r.mask) r.prefix) t.routes

(* Forward one received frame: validate, decrement TTL, recompute the IP
   header checksum in place, re-address the Ethernet header for the next
   hop, and queue it out under the call id it arrived with.  All on the
   real bytes. *)
let forward t ~call frame =
  let module R = Wire.Bytebuf.Reader in
  let r = R.of_bytes frame in
  match Net.Ethernet.decode r with
  | Error _ -> Sim.Stats.Counter.incr t.c_not_ip
  | Ok eth ->
    if eth.Net.Ethernet.ethertype <> Net.Ethernet.ethertype_ipv4 then
      Sim.Stats.Counter.incr t.c_not_ip
    else begin
      match Net.Ipv4.decode r with
      | Error _ -> Sim.Stats.Counter.incr t.c_not_ip
      | Ok ip ->
        if ip.Net.Ipv4.ttl <= 1 then Sim.Stats.Counter.incr t.c_ttl
        else begin
          match lookup_route t ip.Net.Ipv4.dst with
          | None -> Sim.Stats.Counter.incr t.c_no_route
          | Some route -> (
            let out = port_state t route.via in
            match Hashtbl.find_opt out.arp ip.Net.Ipv4.dst with
            | None -> Sim.Stats.Counter.incr t.c_no_arp
            | Some next_hop_mac ->
              let b = Bytes.copy frame in
              (* Ethernet: dst = next hop, src = our egress port. *)
              let w = Wire.Bytebuf.Writer.over b ~pos:0 in
              Net.Mac.write w next_hop_mac;
              Net.Mac.write w (Hw.Deqna.mac out.deqna);
              (* TTL at offset 14+8; checksum at 14+10. *)
              Bytes.set_uint8 b 22 (ip.Net.Ipv4.ttl - 1);
              Bytes.set_uint16_be b 24 0;
              let cks = Wire.Checksum.checksum b ~pos:14 ~len:Net.Ipv4.header_size in
              Bytes.set_uint16_be b 24 cks;
              Sim.Stats.Counter.incr t.c_fwd;
              Hw.Deqna.queue_tx ~call out.deqna b;
              Hw.Deqna.start_transmit out.deqna)
        end
    end

let attach_port t which =
  let p = port_state t which in
  Hw.Deqna.set_interrupt_handler p.deqna (fun () ->
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 ~priority:Cpu_set.Interrupt t.cpu (fun ctx ->
          let rec drain () =
            match Hw.Deqna.take_rx p.deqna with
            | None -> ()
            | Some (frame, call) ->
              if Bufpool.try_alloc t.pool then Hw.Deqna.add_rx_credits p.deqna 1;
              Cpu_set.set_trace_call ctx call;
              Cpu_set.charge ctx ~cat:"router" ~label:"IP forwarding" t.forward_cost;
              forward t ~call frame;
              (* the frame buffer is released once queued out (or dropped) *)
              Bufpool.free t.pool;
              drain ()
          in
          drain ();
          Hw.Deqna.interrupt_done p.deqna))

let create eng ~name ~config ~link_a ~station_a ~ip_a ~link_b ~station_b ~ip_b
    ?(forward_cost = Time.us 300) () =
  let timing = Hw.Timing.create config in
  let mk link station site =
    let qbus = Sim.Resource.create eng ~name:(site ^ "-qbus") ~capacity:1 in
    Hw.Deqna.create eng timing ~link ~qbus ~mac:(Net.Mac.of_station station) ~site ()
  in
  let t =
    {
      eng;
      cpu = Cpu_set.create eng ~site:name ~cpus:1;
      pool = Bufpool.create ~capacity:32 ();
      pa = { deqna = mk link_a station_a (name ^ "-a"); p_ip = ip_a; arp = Hashtbl.create 8 };
      pb = { deqna = mk link_b station_b (name ^ "-b"); p_ip = ip_b; arp = Hashtbl.create 8 };
      routes = [];
      forward_cost;
      c_fwd = Sim.Stats.Counter.create ();
      c_no_route = Sim.Stats.Counter.create ();
      c_ttl = Sim.Stats.Counter.create ();
      c_no_arp = Sim.Stats.Counter.create ();
      c_not_ip = Sim.Stats.Counter.create ();
    }
  in
  attach_port t A;
  attach_port t B;
  (* initial receive credits on both ports *)
  let credits = 8 in
  for _ = 1 to 2 * credits do
    ignore (Bufpool.try_alloc t.pool)
  done;
  Hw.Deqna.add_rx_credits t.pa.deqna credits;
  Hw.Deqna.add_rx_credits t.pb.deqna credits;
  t

let forwarded t = Sim.Stats.Counter.value t.c_fwd
let dropped_no_route t = Sim.Stats.Counter.value t.c_no_route
let dropped_ttl t = Sim.Stats.Counter.value t.c_ttl
let dropped_no_arp t = Sim.Stats.Counter.value t.c_no_arp
let dropped_not_ip t = Sim.Stats.Counter.value t.c_not_ip
