module Engine = Sim.Engine
module Time = Sim.Time

type fault =
  | Deliver
  | Drop
  | Corrupt
  | Corrupt_payload
  | Duplicate
  | Delay of Sim.Time.span
  | Reorder

type station = {
  st_mac : Net.Mac.t;
  on_frame_start : frame:Bytes.t -> call:int -> wire:Time.span -> unit;
}

type held_frame = { hf_src : Net.Mac.t; hf_frame : Bytes.t; hf_call : int; hf_wire : Time.span }

type t = {
  eng : Engine.t;
  mbps : float;
  medium : Sim.Resource.t;
  stations : (Net.Mac.t, station) Hashtbl.t;
  mutable uplink : (src:Net.Mac.t -> frame:Bytes.t -> call:int -> wire:Time.span -> unit) option;
  mutable injector : (Bytes.t -> fault) option;
  mutable held : held_frame option;
  mutable held_gen : int;
  frames : Sim.Stats.Counter.t;
  bytes : Sim.Stats.Counter.t;
  dropped : Sim.Stats.Counter.t;
  corrupted : Sim.Stats.Counter.t;
  duplicated : Sim.Stats.Counter.t;
  delayed : Sim.Stats.Counter.t;
  reordered : Sim.Stats.Counter.t;
}

let create ?obs eng ~mbps =
  if mbps <= 0. then invalid_arg "Ether_link.create: mbps must be positive";
  let t =
    {
      eng;
      mbps;
      medium = Sim.Resource.create eng ~name:"ethernet" ~capacity:1;
      stations = Hashtbl.create 8;
      uplink = None;
      injector = None;
      held = None;
      held_gen = 0;
      frames = Sim.Stats.Counter.create ();
      bytes = Sim.Stats.Counter.create ();
      dropped = Sim.Stats.Counter.create ();
      corrupted = Sim.Stats.Counter.create ();
      duplicated = Sim.Stats.Counter.create ();
      delayed = Sim.Stats.Counter.create ();
      reordered = Sim.Stats.Counter.create ();
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    let reg = o.Obs.Ctx.metrics in
    let site = "ether" in
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.frames" t.frames;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.bytes" t.bytes;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.dropped" t.dropped;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.corrupted" t.corrupted;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.duplicated" t.duplicated;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.delayed" t.delayed;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"link.reordered" t.reordered;
    Obs.Metrics.Registry.register_probe reg ~site ~name:"link.utilization" (fun () ->
        Sim.Resource.utilization t.medium ~upto:(Engine.now t.eng)));
  t

let attach t ~mac ~on_frame_start =
  if Hashtbl.mem t.stations mac then
    invalid_arg ("Ether_link.attach: duplicate station " ^ Net.Mac.to_string mac);
  let st = { st_mac = mac; on_frame_start } in
  Hashtbl.replace t.stations mac st;
  st

let detach t station = Hashtbl.remove t.stations station.st_mac

let wire_span t ~bytes = Time.us_f (float_of_int (bytes * 8) /. t.mbps)
let interframe_gap t = Time.us_f (96. /. t.mbps)
let interframe_span = interframe_gap

let set_fault_injector t f = t.injector <- f
let set_uplink t f = t.uplink <- f

(* Corrupt one byte past [lo], mimicking the DEQNA's post-CRC memory
   errors: the frame still demultiplexes, only the end-to-end checksum
   can catch it. *)
let corrupt_copy t frame ~lo =
  let b = Bytes.copy frame in
  if Bytes.length b > lo then begin
    let i = lo + Sim.Rng.int (Engine.rng t.eng) (Bytes.length b - lo) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20))
  end;
  b

(* A reordered frame not overtaken within this span is delivered anyway,
   so a lone trailing frame cannot vanish into the hold buffer. *)
let reorder_backstop = Time.ms 1

let deliver t ~src frame ~call ~wire =
  let dst = Net.Mac.read (Wire.Bytebuf.Reader.of_bytes frame) in
  let notify st = if not (Net.Mac.equal st.st_mac src) then st.on_frame_start ~frame ~call ~wire in
  if Net.Mac.is_broadcast dst then Hashtbl.iter (fun _ st -> notify st) t.stations
  else
    match Hashtbl.find_opt t.stations dst with
    | Some st -> notify st
    | None -> (
      (* No station on this segment owns the destination MAC.  With an
         uplink (a switch port bridging segments, library [fleet]) the
         frame is handed there; otherwise it disappears into the ether,
         exactly as before. *)
      match t.uplink with
      | Some up -> up ~src ~frame ~call ~wire
      | None -> ())

let release_held t =
  match t.held with
  | None -> ()
  | Some h ->
    t.held <- None;
    deliver t ~src:h.hf_src h.hf_frame ~call:h.hf_call ~wire:h.hf_wire

let transmit ?(call = Sim.Trace.no_call) t ~src frame =
  let len = Bytes.length frame in
  if len < Net.Ethernet.header_size then invalid_arg "Ether_link.transmit: runt frame";
  if len > Net.Ethernet.max_frame_size then invalid_arg "Ether_link.transmit: giant frame";
  let wait_from = Engine.now t.eng in
  Sim.Resource.acquire t.medium;
  (* Time spent waiting for another station's frame (plus its interframe
     gap) is Ethernet queueing delay, not transmission time. *)
  let acquired_at = Engine.now t.eng in
  if Time.span_compare (Time.diff acquired_at wait_from) Time.zero_span > 0 then
    Sim.Trace.add ~track:"wire" ~kind:Sim.Trace.Queue ~call (Engine.trace t.eng)
      ~cat:"send+receive" ~label:"Wait for Ethernet medium" ~site:"ether" ~start_at:wait_from
      ~stop_at:acquired_at;
  Fun.protect
    ~finally:(fun () -> Sim.Resource.release t.medium)
    (fun () ->
      let wire = wire_span t ~bytes:(max len Net.Ethernet.min_frame_size) in
      Sim.Stats.Counter.incr t.frames;
      Sim.Stats.Counter.add t.bytes len;
      let fate =
        match t.injector with
        | None -> Deliver
        | Some f -> f frame
      in
      (match fate with
      | Deliver ->
        deliver t ~src frame ~call ~wire;
        release_held t
      | Drop ->
        Sim.Stats.Counter.incr t.dropped;
        release_held t
      | Corrupt ->
        Sim.Stats.Counter.incr t.corrupted;
        deliver t ~src (corrupt_copy t frame ~lo:Net.Ethernet.header_size) ~call ~wire;
        release_held t
      | Corrupt_payload ->
        if len > 74 then begin
          Sim.Stats.Counter.incr t.corrupted;
          deliver t ~src (corrupt_copy t frame ~lo:74) ~call ~wire
        end
        else deliver t ~src frame ~call ~wire;
        release_held t
      | Duplicate ->
        (* The frame arrives twice back to back, as if the controller
           retransmitted it; the medium is occupied for both copies, so
           the sender blocks for two frame times. *)
        Sim.Stats.Counter.incr t.duplicated;
        deliver t ~src frame ~call ~wire;
        release_held t;
        Engine.delay t.eng (Time.span_add wire (interframe_gap t));
        Sim.Stats.Counter.incr t.frames;
        Sim.Stats.Counter.add t.bytes len;
        deliver t ~src (Bytes.copy frame) ~call ~wire
      | Delay hold ->
        if Time.span_is_negative hold then invalid_arg "Ether_link: negative Delay fault";
        (* The frame sits in limbo (a congested bridge, a slow repeater)
           and arrives [hold] later; the sender's occupancy is normal. *)
        Sim.Stats.Counter.incr t.delayed;
        let copy = Bytes.copy frame in
        release_held t;
        Engine.schedule t.eng ~after:hold (fun () -> deliver t ~src copy ~call ~wire)
      | Reorder ->
        (* The frame is overtaken by the next one on the segment (a
           store-and-forward bridge draining out of order): it is held
           and released right after the next frame's delivery, or after
           [reorder_backstop] if the segment goes quiet. *)
        Sim.Stats.Counter.incr t.reordered;
        release_held t;
        t.held <-
          Some { hf_src = src; hf_frame = Bytes.copy frame; hf_call = call; hf_wire = wire };
        t.held_gen <- t.held_gen + 1;
        let gen = t.held_gen in
        Engine.schedule t.eng ~after:reorder_backstop (fun () ->
            if t.held_gen = gen then release_held t));
      Engine.delay t.eng (Time.span_add wire (interframe_gap t)))

let frames_carried t = Sim.Stats.Counter.value t.frames
let bytes_carried t = Sim.Stats.Counter.value t.bytes
let frames_dropped t = Sim.Stats.Counter.value t.dropped
let frames_corrupted t = Sim.Stats.Counter.value t.corrupted
let frames_duplicated t = Sim.Stats.Counter.value t.duplicated
let frames_delayed t = Sim.Stats.Counter.value t.delayed
let frames_reordered t = Sim.Stats.Counter.value t.reordered
let utilization t ~upto = Sim.Resource.utilization t.medium ~upto
