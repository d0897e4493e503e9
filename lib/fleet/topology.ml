module Engine = Sim.Engine
module Time = Sim.Time

type pending = { pd_src : Net.Mac.t; pd_frame : Bytes.t; pd_call : int }

type port = {
  pt_id : int;
  pt_link : Hw.Ether_link.t;
  pt_egress : pending Queue.t;
  pt_kick : unit Sim.Condvar.t;
}

type t = {
  eng : Engine.t;
  latency : Time.span;
  egress_cap : int;
  pts : port array;
  macs : (Net.Mac.t, int) Hashtbl.t;
  mutable c_forwarded : int;
  mutable c_unknown : int;
  mutable c_incast : int;
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
  if Queue.length pt.pt_egress >= t.egress_cap then
    t.c_incast <- t.c_incast + 1
  else begin
    Queue.push { pd_src = src; pd_frame = frame; pd_call = call } pt.pt_egress;
    t.max_depth <- max t.max_depth (Queue.length pt.pt_egress);
    t.c_forwarded <- t.c_forwarded + 1;
    ignore (Sim.Condvar.signal pt.pt_kick ())
  end

let ingress t ~src ~frame ~call ~wire =
  let dst = Net.Mac.get frame 0 in
  match Hashtbl.find_opt t.macs dst with
  | None -> t.c_unknown <- t.c_unknown + 1
  | Some dst_port ->
    (* Store-and-forward: the frame is only complete at the switch after
       its ingress wire time; the fabric adds [latency] on top. *)
    Engine.schedule t.eng
      ~after:(Time.span_add wire t.latency)
      (fun () -> enqueue_egress t dst_port ~src ~call frame)

let create ~obs eng ~mbps ?(latency = Time.us 10) ?(egress_capacity = 32) ~ports () =
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
      c_forwarded = 0;
      c_unknown = 0;
      c_incast = 0;
      max_depth = 0;
    }
  in
  Array.iter
    (fun pt ->
      Hw.Ether_link.set_uplink pt.pt_link
        (Some (fun ~src ~frame ~call ~wire -> ingress t ~src ~frame ~call ~wire));
      Engine.spawn eng ~name:(Printf.sprintf "switch-egress-%d" pt.pt_id) (egress_loop pt))
    t.pts;
  let reg = obs.Obs.Ctx.metrics in
  let site = "switch" in
  let counter name read = Obs.Metrics.Registry.register_counter_fn reg ~site ~name read in
  counter "switch.forwarded" (fun () -> t.c_forwarded);
  counter "switch.dropped_unknown" (fun () -> t.c_unknown);
  counter "switch.dropped_incast" (fun () -> t.c_incast);
  Obs.Metrics.Registry.register_probe reg ~site ~name:"switch.max_egress_depth" (fun () ->
      float_of_int t.max_depth);
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

let frames_forwarded t = t.c_forwarded
let frames_dropped_unknown t = t.c_unknown
let frames_dropped_incast t = t.c_incast
