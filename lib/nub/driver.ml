module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing
module Deqna = Hw.Deqna

type verdict = Consumed | To_datalink | Dropped of string

type t = {
  eng : Engine.t;
  timing : Timing.t;
  cpus : Cpu_set.t;
  deqna : Deqna.t;
  pool : Bufpool.t;
  obs : Obs.Ctx.t option;
  irq_hist : Obs.Metrics.Histogram.t option;
  mutable fast : ctx:Cpu_set.ctx -> frame:Bytes.t -> verdict;
  mutable datalink : ctx:Cpu_set.ctx -> frame:Bytes.t -> unit;
  datalink_q : (Bytes.t * int) Sim.Mailbox.t; (* frame, call id *)
  (* Flat-scheduled IPI prod (registered once in [create]): every [send]
     raises one, so routing it through the engine's closure-free event
     path keeps the per-packet cost allocation-free up to the prod
     process itself. *)
  mutable ipi_prod : t -> int -> Time.span -> unit;
  c_rx : Sim.Stats.Counter.t;
  c_slow : Sim.Stats.Counter.t;
  c_drop : Sim.Stats.Counter.t;
  c_irq : Sim.Stats.Counter.t;
}

let cat = "send+receive"

let charge ctx ~label span = Cpu_set.charge ctx ~cat ~label span

let journal t ev =
  match t.obs with
  | None -> ()
  | Some o -> Obs.Ctx.record o ~at:(Engine.now t.eng) ~site:(Cpu_set.site t.cpus) ev

(* The CPU-0 prod raised by [send] once the IPI signalling latency has
   elapsed: activate the controller at interrupt priority. *)
let run_ipi_prod t call =
  Engine.spawn t.eng ~name:"ipi" (fun () ->
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 ~priority:Cpu_set.Interrupt ~call t.cpus (fun ctx ->
          journal t Obs.Journal.Ipi;
          charge ctx ~label:"Uniprocessor interrupt entry"
            (Timing.uniproc_interrupt_entry t.timing);
          charge ctx ~label:"Handle interprocessor interrupt" (Timing.ipi_handler t.timing);
          charge ctx ~label:"Activate Ethernet controller"
            (Timing.activate_controller t.timing);
          Deqna.start_transmit t.deqna;
          (* Context restore after the prod: serialized on CPU 0,
             but the packet is already on its way. *)
          charge ctx ~label:"Interrupt epilogue" (Timing.interrupt_epilogue t.timing)))

let create ?obs eng timing ~cpus ~deqna ~pool =
  let site = Cpu_set.site cpus in
  let irq_hist =
    Option.map
      (fun o -> Obs.Metrics.Registry.histogram o.Obs.Ctx.metrics ~site ~name:"interrupt_latency_us")
      obs
  in
  let t =
    {
      eng;
      timing;
      cpus;
      deqna;
      pool;
      obs;
      irq_hist;
      fast = (fun ~ctx:_ ~frame:_ -> To_datalink);
      datalink = (fun ~ctx:_ ~frame:_ -> ());
      datalink_q = Sim.Mailbox.create eng;
      ipi_prod = (fun _ _ _ -> assert false);
      c_rx = Sim.Stats.Counter.create ();
      c_slow = Sim.Stats.Counter.create ();
      c_drop = Sim.Stats.Counter.create ();
      c_irq = Sim.Stats.Counter.create ();
    }
  in
  (match obs with
  | None -> ()
  | Some o ->
    let reg = o.Obs.Ctx.metrics in
    Obs.Metrics.Registry.register_counter reg ~site ~name:"driver.rx_frames" t.c_rx;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"driver.rx_to_datalink" t.c_slow;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"driver.rx_dropped" t.c_drop;
    Obs.Metrics.Registry.register_counter reg ~site ~name:"driver.interrupts" t.c_irq);
  t.ipi_prod <- Engine.register eng run_ipi_prod;
  t

let set_fast_handler t f = t.fast <- f
let set_datalink_handler t f = t.datalink <- f

let interrupt_body t ctx =
  Sim.Stats.Counter.incr t.c_irq;
  journal t Obs.Journal.Interrupt;
  (* Interrupt service latency: from the controller asserting the line
     to the handler actually running on CPU 0. *)
  (match t.irq_hist with
  | None -> ()
  | Some h ->
    Obs.Metrics.Histogram.observe_span h
      (Time.diff (Engine.now t.eng) (Deqna.last_irq_at t.deqna)));
  charge ctx ~label:"General I/O interrupt handler" (Timing.io_interrupt t.timing);
  charge ctx ~label:"Uniprocessor interrupt entry" (Timing.uniproc_interrupt_entry t.timing);
  let rec drain () =
    match Deqna.take_rx t.deqna with
    | None -> ()
    | Some ((frame, call) as rx) ->
      Sim.Stats.Counter.incr t.c_rx;
      Cpu_set.set_trace_call ctx call;
      (* On-the-fly receive buffer replacement: hand the controller a
         fresh buffer before processing this one (§3.2).  If the pool is
         dry the controller will drop until buffers return. *)
      if Bufpool.try_alloc t.pool then Deqna.add_rx_credits t.deqna 1;
      (match t.fast ~ctx ~frame with
      | Consumed -> ()
      | Dropped _ ->
        Sim.Stats.Counter.incr t.c_drop;
        Bufpool.free t.pool
      | To_datalink ->
        Sim.Stats.Counter.incr t.c_slow;
        (* The traditional path costs a second wakeup (§3.2). *)
        charge ctx ~label:"Wakeup datalink thread" (Timing.wakeup t.timing);
        charge ctx ~label:"Uniprocessor wakeup path"
          (Timing.uniproc_wakeup_extra t.timing);
        Sim.Mailbox.send t.datalink_q rx);
      (* Context restore and scheduler bookkeeping for this packet:
         serialized on CPU 0 but off an isolated call's latency path. *)
      charge ctx ~label:"Interrupt epilogue" (Timing.interrupt_epilogue t.timing);
      drain ()
  in
  drain ();
  Deqna.interrupt_done t.deqna

let start t ~rx_buffers =
  let granted = ref 0 in
  for _ = 1 to rx_buffers do
    if Bufpool.try_alloc t.pool then incr granted
  done;
  Deqna.add_rx_credits t.deqna !granted;
  Deqna.set_interrupt_handler t.deqna (fun () ->
      (* Charge the wait for CPU 0 and the handler's entry cost to the
         frame the interrupt was raised for: the head of the completion
         queue (non-empty whenever the interrupt fires). *)
      let call =
        match Deqna.peek_rx t.deqna with
        | Some (_, call) -> call
        | None -> Sim.Trace.no_call
      in
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 ~priority:Cpu_set.Interrupt ~call t.cpus
        (interrupt_body t));
  Engine.spawn t.eng ~name:"datalink" (fun () ->
      let rec loop () =
        let frame, call = Sim.Mailbox.recv t.datalink_q in
        Cpu_set.with_cpu ~call t.cpus (fun ctx ->
            (* Datalink demultiplexing outside the interrupt routine:
               dispatch + the module walk the fast path avoids. *)
            charge ctx ~label:"Datalink thread dispatch" (Timing.dispatch t.timing);
            charge ctx ~label:"Datalink demultiplex" (Time.us 180);
            t.datalink ~ctx ~frame);
        loop ()
      in
      loop ())

let send t ~ctx frame =
  charge ctx ~label:"Handle trap to Nub" (Timing.trap_to_nub t.timing);
  charge ctx ~label:"Queue packet for transmission" (Timing.queue_packet t.timing);
  (* The frame goes out under the sending thread's call id, which every
     hop carries to the receiver, so its work attributes to the same
     RPC. *)
  let call = Cpu_set.trace_call ctx in
  Deqna.queue_tx ~call t.deqna frame;
  (* The interprocessor interrupt: 10 us of signalling latency, then
     CPU 0 runs the prod at interrupt priority.  The signalling interval
     is pure latency on the call's critical path — no CPU is busy — so
     record it directly rather than through [charge]. *)
  let ipi = Timing.ipi_latency t.timing in
  let tr = Engine.trace t.eng in
  if Sim.Trace.enabled tr then begin
    let ipi_sent = Engine.now t.eng in
    Sim.Trace.add ~track:"ipi" ~call tr ~cat ~site:(Cpu_set.site t.cpus)
      ~label:"Interprocessor interrupt to CPU 0" ~start_at:ipi_sent
      ~stop_at:(Time.add ipi_sent ipi)
  end;
  t.ipi_prod t call ipi

let frames_received t = Sim.Stats.Counter.value t.c_rx
let frames_to_datalink t = Sim.Stats.Counter.value t.c_slow
let frames_dropped t = Sim.Stats.Counter.value t.c_drop
let interrupts_taken t = Sim.Stats.Counter.value t.c_irq
