module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing
module Machine = Nub.Machine
module Driver = Nub.Driver
module Activity = Proto.Activity

type delivery = {
  d_src : Frames.endpoint;
  d_hdr : Proto.header;
  d_payload : Wire.Bytebuf.View.t;
  d_call : int;
}

module Entry = struct
  type t = { waiter : Nub.Waiter.t; inbox : delivery Queue.t }

  let create machine = { waiter = Machine.new_waiter machine; inbox = Queue.create () }
  let inbox_pop t = Queue.take_opt t.inbox

  let deliver t ~waker d =
    Queue.push d t.inbox;
    Nub.Waiter.notify t.waiter ~waker
end

type t = {
  mach : Machine.t;
  tmg : Timing.t;
  callers : (Activity.t, Entry.t) Hashtbl.t;
  frag_sinks : (Activity.t, Entry.t) Hashtbl.t;
  worker_pools : (int, Entry.t Queue.t) Hashtbl.t;
  slow_sinks : (int, delivery -> unit) Hashtbl.t;
  alt_handlers : (int, ctx:Cpu_set.ctx -> frame:Bytes.t -> Driver.verdict) Hashtbl.t;
  c_stale : Sim.Stats.Counter.t;
  c_cks_reject : Sim.Stats.Counter.t;
  c_fast : Sim.Stats.Counter.t;
  c_slow : Sim.Stats.Counter.t;
}

let machine t = t.mach
let timing t = t.tmg
let endpoint t = { Frames.mac = Machine.mac t.mach; ip = Machine.ip t.mach }
let new_entry t = Entry.create t.mach

let register_caller t act entry =
  if Hashtbl.mem t.callers act then
    invalid_arg
      (Format.asprintf "Node.register_caller: activity %a already has an outstanding call"
         Activity.pp act);
  Hashtbl.replace t.callers act entry

let unregister_caller t act = Hashtbl.remove t.callers act
let register_fragment_sink t act entry = Hashtbl.replace t.frag_sinks act entry
let unregister_fragment_sink t act = Hashtbl.remove t.frag_sinks act
let fragment_sinks t = Hashtbl.length t.frag_sinks
let outstanding_callers t = Hashtbl.length t.callers

let worker_pool t space =
  match Hashtbl.find_opt t.worker_pools space with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.worker_pools space q;
    q

let join_worker_pool t ~space entry = Queue.push entry (worker_pool t space)
let space_taken t ~space = Hashtbl.mem t.slow_sinks space

let set_slow_sink t ~space f =
  if space_taken t ~space then
    invalid_arg (Printf.sprintf "Node.set_slow_sink: space %d already taken" space);
  Hashtbl.replace t.slow_sinks space f

let set_ethertype_handler t ~ethertype f = Hashtbl.replace t.alt_handlers ethertype f

let frame_ethertype frame =
  if Bytes.length frame >= Net.Ethernet.header_size then Bytes.get_uint16_be frame 12 else -1
let wait t entry ctx = ignore t; Nub.Waiter.wait entry.Entry.waiter ctx
let wait_timeout t entry ctx ~timeout = ignore t; Nub.Waiter.wait_timeout entry.Entry.waiter ctx ~timeout

(* {1 Receive: the interrupt-routine demultiplexer} *)

let cat = "send+receive"

(* The driver has stamped [ctx] with the call id the frame arrived
   with; the delivery carries it on to the thread that handles it. *)
let delivery ctx (p : Frames.parsed) =
  {
    d_src = p.Frames.p_src;
    d_hdr = p.Frames.p_hdr;
    d_payload = p.Frames.p_payload;
    d_call = Cpu_set.trace_call ctx;
  }

(* One packet, already parsed.  Runs on CPU 0 at interrupt priority.
   Returns the driver verdict; on [Consumed] the frame's simulated pool
   buffer is freed here.  The delivery's payload is a zero-copy view of
   the frame: the accounting buffer goes back to the pool, while the
   real bytes stay alive (GC-owned, immutable) until the runtime is
   done with them. *)
let demux t ctx (p : Frames.parsed) =
  let hdr = p.Frames.p_hdr in
  let d = delivery ctx p in
  let consume entry =
    Entry.deliver entry ~waker:ctx d;
    Nub.Bufpool.free (Machine.pool t.mach);
    Driver.Consumed
  in
  match hdr.Proto.ptype with
  | Proto.Call -> (
    match Hashtbl.find_opt t.frag_sinks hdr.Proto.activity with
    | Some entry -> consume entry
    | None -> (
      let pool = worker_pool t hdr.Proto.server_space in
      match Queue.take_opt pool with
      | Some entry ->
        Sim.Stats.Counter.incr t.c_fast;
        consume entry
      | None ->
        Sim.Stats.Counter.incr t.c_slow;
        Driver.To_datalink))
  | Proto.Result | Proto.Busy | Proto.Error_reply -> (
    match Hashtbl.find_opt t.callers hdr.Proto.activity with
    | Some entry -> consume entry
    | None ->
      Sim.Stats.Counter.incr t.c_stale;
      Driver.Dropped "no caller waiting")
  | Proto.Ack -> (
    (* Fragment acks go to whichever side is mid-transfer: a server
       worker assembling or emitting fragments (the fragment sink) has
       priority over the caller entry. *)
    match Hashtbl.find_opt t.frag_sinks hdr.Proto.activity with
    | Some entry -> consume entry
    | None -> (
      match Hashtbl.find_opt t.callers hdr.Proto.activity with
      | Some entry -> consume entry
      | None ->
        Sim.Stats.Counter.incr t.c_stale;
        Driver.Dropped "stale ack"))

let traditional t = (Timing.config t.tmg).Hw.Config.traditional_demux

(* Header interpretation and demultiplexing ([label]: the Table VI
   "Handle interrupt for received pkt" step, or its datalink-thread
   twin), then the software checksum. *)
let charge_receive t ctx ~label frame =
  let bytes = Bytes.length frame in
  Cpu_set.charge ctx ~cat ~label (Timing.rx_demux t.tmg);
  Cpu_set.charge ctx ~cat ~label:"Calculate UDP checksum" (Timing.udp_checksum t.tmg ~bytes);
  Cpu_set.charge ctx ~cat ~label:"Uniprocessor receive path" (Timing.uniproc_rx_extra t.tmg ~bytes)

let count_reject t = function
  | "udp: bad checksum" | "rpc: bad end-to-end checksum" -> Sim.Stats.Counter.incr t.c_cks_reject
  | _ -> ()

let fast_handler_rpc t ~ctx ~frame =
  if traditional t then begin
    (* §3.2's "traditional approach" ablation: the interrupt routine
       does no RPC work; it just posts the frame to the datalink
       thread (the driver charges that extra wakeup). *)
    Cpu_set.charge ctx ~cat ~label:"Post to datalink" (Timing.traditional_interrupt t.tmg);
    Driver.To_datalink
  end
  else begin
    charge_receive t ctx ~label:"Handle interrupt for received pkt" frame;
    match Frames.parse t.tmg frame with
    | Ok parsed -> demux t ctx parsed
    | Error e ->
      count_reject t e;
      Driver.Dropped e
  end

let fast_handler t ~ctx ~frame =
  match Hashtbl.find_opt t.alt_handlers (frame_ethertype frame) with
  | Some handler -> handler ~ctx ~frame
  | None -> fast_handler_rpc t ~ctx ~frame

(* The datalink thread: in the default configuration it only sees
   packets the interrupt demultiplexer could not place (calls with no
   waiting worker); in the traditional-demux ablation it sees every
   packet and does the full demultiplex itself, on its own thread. *)
let datalink_handler t ~ctx ~frame =
  let free_buffer () = Nub.Bufpool.free (Machine.pool t.mach) in
  if traditional t then charge_receive t ctx ~label:"Handle received pkt (datalink)" frame;
  match Frames.parse t.tmg frame with
  | Error e ->
    count_reject t e;
    free_buffer ()
  | Ok parsed -> (
    (* Reuse the call-table demultiplexer (it frees the buffer when it
       consumes the packet). *)
    match demux t ctx parsed with
    | Driver.Consumed -> ()
    | Driver.Dropped _ -> free_buffer ()
    | Driver.To_datalink -> (
      let hdr = parsed.Frames.p_hdr in
      free_buffer ();
      match Hashtbl.find_opt t.slow_sinks hdr.Proto.server_space with
      | Some sink -> sink (delivery ctx parsed)
      | None -> Sim.Stats.Counter.incr t.c_stale))

let create mach =
  let t =
    {
      mach;
      tmg = Machine.timing mach;
      callers = Hashtbl.create 32;
      frag_sinks = Hashtbl.create 8;
      worker_pools = Hashtbl.create 4;
      slow_sinks = Hashtbl.create 4;
      alt_handlers = Hashtbl.create 4;
      c_stale = Sim.Stats.Counter.create ();
      c_cks_reject = Sim.Stats.Counter.create ();
      c_fast = Sim.Stats.Counter.create ();
      c_slow = Sim.Stats.Counter.create ();
    }
  in
  Driver.set_fast_handler (Machine.driver mach) (fun ~ctx ~frame -> fast_handler t ~ctx ~frame);
  Driver.set_datalink_handler (Machine.driver mach) (fun ~ctx ~frame ->
      datalink_handler t ~ctx ~frame);
  t

(* {1 Send} *)

let send t ~ctx ~dst ~hdr ~payload ~payload_pos ~payload_len =
  let frame =
    Frames.build t.tmg ~src:(endpoint t) ~dst ~hdr ~payload ~payload_pos ~payload_len
  in
  Cpu_set.charge ctx ~cat ~label:"Finish UDP header (Sender)" (Timing.finish_udp_header t.tmg);
  Cpu_set.charge ctx ~cat ~label:"Calculate UDP checksum"
    (Timing.udp_checksum t.tmg ~bytes:(Bytes.length frame));
  Cpu_set.charge ctx ~cat ~label:"Unattributed" (Timing.unattributed_per_packet t.tmg);
  (* The §5 uniprocessor scheduling bug: without the "swapped lines"
     fix, a single-CPU machine occasionally loses an outgoing packet in
     the race it fixes, forcing a retransmission-timeout recovery. *)
  let bug_p = Timing.uniproc_bug_loss_probability t.tmg in
  if bug_p > 0. && Sim.Rng.bool (Engine.rng (Machine.engine t.mach)) ~p:bug_p then ()
  else Driver.send (Machine.driver t.mach) ~ctx frame

let stale_packets t = Sim.Stats.Counter.value t.c_stale
let checksum_rejects t = Sim.Stats.Counter.value t.c_cks_reject
let calls_fast_path t = Sim.Stats.Counter.value t.c_fast
let calls_slow_path t = Sim.Stats.Counter.value t.c_slow
