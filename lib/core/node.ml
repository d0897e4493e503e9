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

module Pool = Nub.Waiter.Pool

type t = {
  mach : Machine.t;
  tmg : Timing.t;
  callers : (Activity.t, delivery Nub.Waiter.t) Hashtbl.t;
  frag_sinks : (Activity.t, delivery Nub.Waiter.t) Hashtbl.t;
  pools : (int, delivery Pool.t) Hashtbl.t;
  alt_handlers : (int, ctx:Cpu_set.ctx -> frame:Bytes.t -> Driver.verdict) Hashtbl.t;
  mutable c_stale : int;
  mutable c_cks_reject : int;
  mutable c_fast : int;
  mutable c_slow : int;
}

let machine t = t.mach
let timing t = t.tmg
let endpoint t = { Frames.mac = Machine.mac t.mach; ip = Machine.ip t.mach }

let register_caller t act w =
  if Hashtbl.mem t.callers act then
    invalid_arg
      (Format.asprintf "Node.register_caller: activity %a already has an outstanding call"
         Activity.pp act);
  Hashtbl.replace t.callers act w

let unregister_caller t act = Hashtbl.remove t.callers act
let register_fragment_sink t act w = Hashtbl.replace t.frag_sinks act w
let unregister_fragment_sink t act = Hashtbl.remove t.frag_sinks act
let fragment_sinks t = Hashtbl.length t.frag_sinks
let outstanding_callers t = Hashtbl.length t.callers

let serve_space t ~space =
  if Hashtbl.mem t.pools space then
    invalid_arg (Printf.sprintf "Node.serve_space: space %d already served" space);
  let pool = Pool.create () in
  Hashtbl.replace t.pools space pool;
  pool

let set_ethertype_handler t ~ethertype f = Hashtbl.replace t.alt_handlers ethertype f

let frame_ethertype frame =
  if Bytes.length frame >= Net.Ethernet.header_size then Bytes.get_uint16_be frame 12 else -1

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
  let consumed () =
    Nub.Bufpool.free (Machine.pool t.mach);
    Driver.Consumed
  in
  let consume w =
    Nub.Waiter.notify w ~waker:ctx d;
    consumed ()
  in
  match hdr.Proto.ptype with
  | Proto.Call -> (
    match Hashtbl.find_opt t.frag_sinks hdr.Proto.activity with
    | Some w -> consume w
    | None -> (
      match Hashtbl.find_opt t.pools hdr.Proto.server_space with
      | Some pool when Pool.offer pool ~waker:ctx d ->
        t.c_fast <- t.c_fast + 1;
        consumed ()
      | Some _ | None ->
        t.c_slow <- t.c_slow + 1;
        Driver.To_datalink))
  | Proto.Result | Proto.Busy | Proto.Error_reply -> (
    match Hashtbl.find_opt t.callers hdr.Proto.activity with
    | Some w -> consume w
    | None ->
      t.c_stale <- t.c_stale + 1;
      Driver.Dropped "no caller waiting")
  | Proto.Ack -> (
    (* Fragment acks go to whichever side is mid-transfer: a server
       worker assembling or emitting fragments (the fragment sink) has
       priority over the caller entry. *)
    match Hashtbl.find_opt t.frag_sinks hdr.Proto.activity with
    | Some w -> consume w
    | None -> (
      match Hashtbl.find_opt t.callers hdr.Proto.activity with
      | Some w -> consume w
      | None ->
        t.c_stale <- t.c_stale + 1;
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
  | "udp: bad checksum" | "rpc: bad end-to-end checksum" -> t.c_cks_reject <- t.c_cks_reject + 1
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
   waiting worker), and queues each in its space's pool; in the
   traditional-demux ablation it sees every packet and does the full
   demultiplex itself, on its own thread. *)
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
      match Hashtbl.find_opt t.pools hdr.Proto.server_space with
      | Some pool -> Pool.queue pool (delivery ctx parsed)
      | None -> t.c_stale <- t.c_stale + 1))

let create mach =
  let t =
    {
      mach;
      tmg = Machine.timing mach;
      callers = Hashtbl.create 32;
      frag_sinks = Hashtbl.create 8;
      pools = Hashtbl.create 4;
      alt_handlers = Hashtbl.create 4;
      c_stale = 0;
      c_cks_reject = 0;
      c_fast = 0;
      c_slow = 0;
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

let stale_packets t = t.c_stale
let checksum_rejects t = t.c_cks_reject
let calls_fast_path t = t.c_fast
let calls_slow_path t = t.c_slow
