module Engine = Sim.Engine
module Time = Sim.Time

(* One DMA/processing engine serves transmit and receive work in FIFO
   order; arriving frames land in a small staging RAM (overrun-dropped
   when it is full) and are drained to memory when the engine gets to
   them.  Store-and-forward everywhere: a transmitted frame is read over
   the QBus before it goes on the wire, a received frame is on the wire
   before its QBus write starts (no cut-through, §4.2.1), and each frame
   costs the engine a housekeeping recovery after the transfer. *)

(* Every job and completion carries the call id its frame was sent
   under ([Sim.Trace.no_call] when untraced), so the controller's spans
   and the receiving driver attribute to the right call. *)
type job =
  | Tx of { frame : Bytes.t; call : int; enq_at : Time.t }
  | Rx_drain of { frame : Bytes.t; call : int; ready_at : Time.t; enq_at : Time.t }

type t = {
  eng : Engine.t;
  timing : Timing.t;
  dev_mac : Net.Mac.t;
  site : string;
  link : Ether_link.t;
  qbus : Sim.Resource.t;
  mutable dev_station : Ether_link.station option;
  jobs : job Queue.t;
  engine_kick : unit Sim.Condvar.t;
  staging_cap : int;
  mutable staging_used : int;
  mutable credits : int;
  rx_done : (Bytes.t * int) Queue.t;
  mutable irq_asserted : bool;
  mutable irq_raised_at : Time.t;
  mutable irq_handler : unit -> unit;
  obs : Obs.Ctx.t;
  mutable c_tx : int;
  mutable c_rx : int;
  mutable c_overrun : int;
  mutable c_no_buffer : int;
}

let journal t ev = Obs.Ctx.record t.obs ~at:(Engine.now t.eng) ~site:t.site ev

let cut_through t = (Timing.config t.timing).Config.cut_through

(* Controller timings vary a little in reality (memory contention, ring
   state); ±20% jitter on the housekeeping phases keeps the closed-loop
   workload from phase-locking into artificial deterministic cycles. *)
let jitter t span =
  Time.span_scale (0.8 +. Sim.Rng.float (Engine.rng t.eng) 0.4) span

let raise_irq t =
  if not t.irq_asserted then begin
    t.irq_asserted <- true;
    t.irq_raised_at <- Engine.now t.eng;
    let handler = t.irq_handler in
    Engine.spawn t.eng ~name:"deqna-irq" handler
  end

let enqueue_job t job =
  Queue.push job t.jobs;
  ignore (Sim.Condvar.signal t.engine_kick ())

(* Reception: the frame streams into staging RAM during its wire time,
   independent of the engine.  Store-and-forward queues the drain job
   when the frame is complete; a cut-through controller (§4.2.1) starts
   the memory write immediately, overlapping it with reception, and
   completes at whichever of the two transfers finishes last. *)
let on_frame_start t ~frame ~call ~wire =
  if t.staging_used >= t.staging_cap then t.c_overrun <- t.c_overrun + 1
  else begin
    t.staging_used <- t.staging_used + 1;
    let ready_at = Time.add (Engine.now t.eng) wire in
    if cut_through t then
      enqueue_job t (Rx_drain { frame; call; ready_at; enq_at = Engine.now t.eng })
    else
      Engine.spawn t.eng ~name:"deqna-rx-wire" (fun () ->
          Engine.delay t.eng wire;
          enqueue_job t (Rx_drain { frame; call; ready_at; enq_at = Engine.now t.eng }))
  end

let trace_span ?(track = "deqna") ?kind ~call t ~label ~start_at ~stop_at =
  Sim.Trace.add ~track ?kind ~call (Engine.trace t.eng) ~cat:"send+receive" ~label ~site:t.site
    ~start_at ~stop_at

(* Queueing delay on the controller's shared resources is recorded
   separately from service time so the attribution engine can tell
   contention from work.  Zero-length waits record nothing. *)
let trace_queue ?(track = "deqna") t ~label ~call ~start_at ~stop_at =
  if Time.span_compare (Time.diff stop_at start_at) Time.zero_span > 0 then
    trace_span ~track ~kind:Sim.Trace.Queue ~call t ~label ~start_at ~stop_at

let use_qbus ~call t span ~label =
  let wait_from = Engine.now t.eng in
  Sim.Resource.acquire t.qbus;
  let start_at = Engine.now t.eng in
  trace_queue t ~label:"Wait for QBus" ~call ~start_at:wait_from ~stop_at:start_at;
  Engine.delay t.eng span;
  trace_span ~call t ~label ~start_at ~stop_at:(Engine.now t.eng);
  Sim.Resource.release t.qbus

let transmit_traced ~call t frame =
  let len = Bytes.length frame in
  Ether_link.transmit ~call t.link ~src:t.dev_mac frame;
  (* [transmit] blocks through medium acquisition, the wire time and
     the interframe gap; reconstruct the pure wire interval for the
     Table VI "Transmission time on Ethernet" step. *)
  let after = Engine.now t.eng in
  let wire = Ether_link.wire_span t.link ~bytes:(max len Net.Ethernet.min_frame_size) in
  let neg d = Time.span_scale (-1.) d in
  let wire_end = Time.add after (neg (Ether_link.interframe_gap t.link)) in
  let wire_start = Time.add wire_end (neg wire) in
  trace_span ~track:"wire" ~call t ~label:"Transmission time on Ethernet" ~start_at:wire_start
    ~stop_at:wire_end

let do_tx t frame ~call ~enq_at =
  trace_queue t ~label:"Controller transmit queue" ~call ~start_at:enq_at
    ~stop_at:(Engine.now t.eng);
  let qspan = Timing.qbus_transmit t.timing ~bytes:(Bytes.length frame) in
  let qlabel = "QBus/Controller transmit latency" in
  if cut_through t then begin
    (* QBus read overlaps the wire transfer (§4.2.1's hypothetical
       controller): the engine is busy for the longer of the two. *)
    let qbus_done = Sim.Gate.create t.eng in
    Engine.spawn t.eng ~name:"deqna-tx-dma" (fun () ->
        use_qbus ~call t qspan ~label:qlabel;
        Sim.Gate.open_ qbus_done);
    Engine.delay t.eng (Timing.cut_through_setup t.timing);
    transmit_traced ~call t frame;
    Sim.Gate.wait qbus_done
  end
  else begin
    use_qbus ~call t qspan ~label:qlabel;
    transmit_traced ~call t frame
  end;
  t.c_tx <- t.c_tx + 1;
  journal t (Obs.Journal.Packet_tx { bytes = Bytes.length frame });
  Engine.delay t.eng (jitter t (Timing.deqna_tx_recovery t.timing))

let do_rx_drain t frame ~call ~ready_at ~enq_at =
  let len = Bytes.length frame in
  if t.credits = 0 then begin
    t.c_no_buffer <- t.c_no_buffer + 1;
    t.staging_used <- t.staging_used - 1
  end
  else begin
    trace_queue t ~label:"Controller receive queue" ~call ~start_at:enq_at
      ~stop_at:(Engine.now t.eng);
    t.credits <- t.credits - 1;
    use_qbus ~call t
      (Timing.qbus_receive t.timing ~bytes:len)
      ~label:"QBus/Controller receive latency";
    (* Under cut-through the write may outrun reception: the frame is
       only complete in memory at [ready_at]. *)
    let now = Engine.now t.eng in
    if Time.(now < ready_at) then Engine.delay t.eng (Time.diff ready_at now);
    t.staging_used <- t.staging_used - 1;
    Queue.push (frame, call) t.rx_done;
    t.c_rx <- t.c_rx + 1;
    journal t (Obs.Journal.Packet_rx { bytes = len });
    raise_irq t;
    Engine.delay t.eng (jitter t (Timing.deqna_rx_recovery t.timing ~bytes:len))
  end

let engine_loop t () =
  let rec loop () =
    match Queue.take_opt t.jobs with
    | Some (Tx { frame; call; enq_at }) ->
      do_tx t frame ~call ~enq_at;
      loop ()
    | Some (Rx_drain { frame; call; ready_at; enq_at }) ->
      do_rx_drain t frame ~call ~ready_at ~enq_at;
      loop ()
    | None ->
      Sim.Condvar.await t.engine_kick;
      loop ()
  in
  loop ()

let create eng timing ~link ~qbus ~mac ?site ~obs () =
  let t =
    {
      eng;
      timing;
      dev_mac = mac;
      site = Option.value site ~default:(Net.Mac.to_string mac);
      link;
      qbus;
      dev_station = None;
      jobs = Queue.create ();
      engine_kick = Sim.Condvar.create eng;
      staging_cap = (Timing.config timing).Config.deqna_staging_frames;
      staging_used = 0;
      credits = 0;
      rx_done = Queue.create ();
      irq_asserted = false;
      irq_raised_at = Time.zero;
      irq_handler = ignore;
      obs;
      c_tx = 0;
      c_rx = 0;
      c_overrun = 0;
      c_no_buffer = 0;
    }
  in
  let reg = obs.Obs.Ctx.metrics in
  let site = t.site in
  let counter name read = Obs.Metrics.Registry.register_counter_fn reg ~site ~name read in
  counter "deqna.tx_frames" (fun () -> t.c_tx);
  counter "deqna.rx_frames" (fun () -> t.c_rx);
  counter "deqna.rx_overruns" (fun () -> t.c_overrun);
  counter "deqna.rx_no_buffer" (fun () -> t.c_no_buffer);
  Obs.Metrics.Registry.register_probe reg ~site ~name:"deqna.queue_depth" (fun () ->
      float_of_int (Queue.length t.jobs + t.staging_used));
  let station =
    Ether_link.attach link ~mac ~on_frame_start:(fun ~frame ~call ~wire ->
        on_frame_start t ~frame ~call ~wire)
  in
  t.dev_station <- Some station;
  Engine.spawn eng ~name:"deqna-engine" (engine_loop t);
  t

let mac t = t.dev_mac

let station t =
  match t.dev_station with
  | Some s -> s
  | None -> invalid_arg "Deqna.station: detached"

let detach_from_link t =
  match t.dev_station with
  | Some s ->
    Ether_link.detach t.link s;
    t.dev_station <- None
  | None -> ()

let reattach_to_link t =
  match t.dev_station with
  | Some _ -> ()
  | None ->
    let station =
      Ether_link.attach t.link ~mac:t.dev_mac ~on_frame_start:(fun ~frame ~call ~wire ->
          on_frame_start t ~frame ~call ~wire)
    in
    t.dev_station <- Some station

(* Queueing a frame does not start the engine: an idle controller only
   begins transmitting when CPU 0 prods it (the "activate Ethernet
   controller" step); a busy engine picks the job up when it gets
   there. *)
let queue_tx ?(call = Sim.Trace.no_call) t frame =
  Queue.push (Tx { frame; call; enq_at = Engine.now t.eng }) t.jobs
let start_transmit t = ignore (Sim.Condvar.signal t.engine_kick ())
let add_rx_credits t n = t.credits <- t.credits + n
let set_interrupt_handler t f = t.irq_handler <- f
let take_rx t = Queue.take_opt t.rx_done
let peek_rx t = Queue.peek_opt t.rx_done

let interrupt_done t =
  t.irq_asserted <- false;
  if not (Queue.is_empty t.rx_done) then raise_irq t

let last_irq_at t = t.irq_raised_at
let tx_frames t = t.c_tx
let rx_frames t = t.c_rx
let rx_overruns t = t.c_overrun
let rx_no_buffer t = t.c_no_buffer
