module Engine = Sim.Engine
module Time = Sim.Time

type pending = { pd_src : Net.Mac.t; pd_frame : Bytes.t; pd_call : int }

type port = {
  pt_id : int;
  pt_link : Hw.Ether_link.t;
  pt_egress : pending Queue.t;
  pt_kick : Sim.Condvar.t;
}

type t = {
  eng : Engine.t;
  latency : Time.span;
  egress_cap : int;
  pts : port array;
  macs : (Net.Mac.t, int) Hashtbl.t;
  mutable injector : (port:int -> Bytes.t -> bool) option;
  c_forwarded : Sim.Stats.Counter.t;
  c_unknown : Sim.Stats.Counter.t;
  c_incast : Sim.Stats.Counter.t;
  mutable max_depth : int;
}

(* One egress process per port: drain the queue in FIFO order, holding
   the port's segment for each frame's wire time — the per-port
   serialization that makes incast a queueing problem rather than a
   shared-medium one. *)
let egress_loop pt () =
  let rec loop () =
    match Queue.take_opt pt.pt_egress with
    | Some { pd_src; pd_frame; pd_call } ->
      Hw.Ether_link.transmit ~call:pd_call pt.pt_link ~src:pd_src pd_frame;
      loop ()
    | None ->
      Sim.Condvar.await pt.pt_kick;
      loop ()
  in
  loop ()

(* A frame has fully arrived at the switch (ingress wire time elapsed)
   and crossed the fabric: queue it at the destination port, or drop it
   if the egress queue is full — the incast loss the RPC layer must
   retransmit through. *)
let enqueue_egress t dst_port ~src ~call frame =
  let pt = t.pts.(dst_port) in
  let forced_drop =
    match t.injector with
    | Some f -> f ~port:dst_port frame
    | None -> false
  in
  if forced_drop || Queue.length pt.pt_egress >= t.egress_cap then
    Sim.Stats.Counter.incr t.c_incast
  else begin
    Queue.push { pd_src = src; pd_frame = frame; pd_call = call } pt.pt_egress;
    t.max_depth <- max t.max_depth (Queue.length pt.pt_egress);
    Sim.Stats.Counter.incr t.c_forwarded;
    ignore (Sim.Condvar.signal pt.pt_kick)
  end

let ingress t ~src ~frame ~call ~wire =
  let dst = Net.Mac.read (Wire.Bytebuf.Reader.of_bytes frame) in
  match Hashtbl.find_opt t.macs dst with
  | None -> Sim.Stats.Counter.incr t.c_unknown
  | Some dst_port ->
    (* Store-and-forward: the frame is only complete at the switch after
       its ingress wire time; the fabric adds [latency] on top. *)
    Engine.schedule t.eng
      ~after:(Time.span_add wire t.latency)
      (fun () -> enqueue_egress t dst_port ~src ~call frame)

let create ?obs eng ~mbps ?(latency = Time.us 10) ?(egress_capacity = 32) ~ports () =
  if ports < 1 then invalid_arg "Topology.create: ports must be >= 1";
  if egress_capacity < 1 then invalid_arg "Topology.create: egress_capacity must be >= 1";
  if Time.span_is_negative latency then invalid_arg "Topology.create: negative latency";
  let t =
    {
      eng;
      latency;
      egress_cap = egress_capacity;
      pts =
        Array.init ports (fun i ->
            {
              pt_id = i;
              (* Per-port links keep their own medium resource; metrics
                 stay unregistered here (N links would collide on the
                 fixed "ether" site) — the switch publishes aggregates
                 under "switch" instead. *)
              pt_link = Hw.Ether_link.create eng ~mbps;
              pt_egress = Queue.create ();
              pt_kick = Sim.Condvar.create eng;
            });
      macs = Hashtbl.create 32;
      injector = None;
      c_forwarded = Sim.Stats.Counter.create ();
      c_unknown = Sim.Stats.Counter.create ();
      c_incast = Sim.Stats.Counter.create ();
      max_depth = 0;
    }
  in
  Array.iter
    (fun pt ->
      Hw.Ether_link.set_uplink pt.pt_link
        (Some (fun ~src ~frame ~call ~wire -> ingress t ~src ~frame ~call ~wire));
      Engine.spawn eng ~name:(Printf.sprintf "switch-egress-%d" pt.pt_id) (egress_loop pt))
    t.pts;
  (match obs with
  | None -> ()
  | Some o ->
    let reg = o.Obs.Ctx.metrics in
    let site = "switch" in
    Obs.Metrics.Registry.register_counter reg ~site ~name:"switch.forwarded" t.c_forwarded;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"switch.dropped_unknown" t.c_unknown;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"switch.dropped_incast" t.c_incast;
    Obs.Metrics.Registry.register_probe reg ~site ~name:"switch.max_egress_depth" (fun () ->
        float_of_int t.max_depth));
  t

let ports t = Array.length t.pts

let port_link t i =
  if i < 0 || i >= Array.length t.pts then invalid_arg "Topology.port_link: no such port";
  t.pts.(i).pt_link

let register_mac t ~mac ~port =
  if port < 0 || port >= Array.length t.pts then invalid_arg "Topology.register_mac: no such port";
  if Hashtbl.mem t.macs mac then
    invalid_arg ("Topology.register_mac: duplicate MAC " ^ Net.Mac.to_string mac);
  Hashtbl.replace t.macs mac port

let set_egress_fault_injector t f = t.injector <- f
let frames_forwarded t = Sim.Stats.Counter.value t.c_forwarded
let frames_dropped_unknown t = Sim.Stats.Counter.value t.c_unknown
let frames_dropped_incast t = Sim.Stats.Counter.value t.c_incast
let max_egress_depth t = t.max_depth
