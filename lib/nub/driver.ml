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
  obs : Obs.Ctx.t;
  irq_hist : Obs.Metrics.Histogram.t;
  mutable fast : ctx:Cpu_set.ctx -> frame:Bytes.t -> verdict;
  mutable datalink : ctx:Cpu_set.ctx -> frame:Bytes.t -> unit;
  datalink_q : (Bytes.t * int) Queue.t; (* frame, call id *)
  datalink_kick : unit Sim.Condvar.t;
  (* Engine handler of the IPI prod (registered once in [create]):
     every [send] raises one, so routing it through the engine's
     closure-free event path keeps the per-packet cost allocation-free
     up to the prod process itself. *)
  mutable ipi_prod : int;
  mutable c_rx : int;
  mutable c_slow : int;
  mutable c_drop : int;
  mutable c_irq : int;
}

let cat = "send+receive"

let charge ctx ~label span = Cpu_set.charge ctx ~cat ~label span

let journal t ev = Obs.Ctx.record t.obs ~at:(Engine.now t.eng) ~site:(Cpu_set.site t.cpus) ev

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

let create ~obs eng timing ~cpus ~deqna ~pool =
  let site = Cpu_set.site cpus in
  let reg = obs.Obs.Ctx.metrics in
  let t =
    {
      eng;
      timing;
      cpus;
      deqna;
      pool;
      obs;
      irq_hist = Obs.Metrics.Registry.histogram reg ~site ~name:"interrupt_latency_us";
      fast = (fun ~ctx:_ ~frame:_ -> To_datalink);
      datalink = (fun ~ctx:_ ~frame:_ -> ());
      datalink_q = Queue.create ();
      datalink_kick = Sim.Condvar.create eng;
      ipi_prod = -1;
      c_rx = 0;
      c_slow = 0;
      c_drop = 0;
      c_irq = 0;
    }
  in
  let counter name read = Obs.Metrics.Registry.register_counter_fn reg ~site ~name read in
  counter "driver.rx_frames" (fun () -> t.c_rx);
  counter "driver.rx_to_datalink" (fun () -> t.c_slow);
  counter "driver.rx_dropped" (fun () -> t.c_drop);
  counter "driver.interrupts" (fun () -> t.c_irq);
  t.ipi_prod <- Engine.register_handler eng (fun call _ -> run_ipi_prod t call);
  t

let set_fast_handler t f = t.fast <- f
let set_datalink_handler t f = t.datalink <- f

let interrupt_body t ctx =
  t.c_irq <- t.c_irq + 1;
  journal t Obs.Journal.Interrupt;
  (* Interrupt service latency: from the controller asserting the line
     to the handler actually running on CPU 0. *)
  Obs.Metrics.Histogram.observe_span t.irq_hist
    (Time.diff (Engine.now t.eng) (Deqna.last_irq_at t.deqna));
  charge ctx ~label:"General I/O interrupt handler" (Timing.io_interrupt t.timing);
  charge ctx ~label:"Uniprocessor interrupt entry" (Timing.uniproc_interrupt_entry t.timing);
  let rec drain () =
    match Deqna.take_rx t.deqna with
    | None -> ()
    | Some ((frame, call) as rx) ->
      t.c_rx <- t.c_rx + 1;
      Cpu_set.set_trace_call ctx call;
      (* On-the-fly receive buffer replacement: hand the controller a
         fresh buffer before processing this one (§3.2).  If the pool is
         dry the controller will drop until buffers return. *)
      if Bufpool.try_alloc t.pool then Deqna.add_rx_credits t.deqna 1;
      (match t.fast ~ctx ~frame with
      | Consumed -> ()
      | Dropped _ ->
        t.c_drop <- t.c_drop + 1;
        Bufpool.free t.pool
      | To_datalink ->
        t.c_slow <- t.c_slow + 1;
        (* The traditional path costs a second wakeup (§3.2). *)
        charge ctx ~label:"Wakeup datalink thread" (Timing.wakeup t.timing);
        charge ctx ~label:"Uniprocessor wakeup path"
          (Timing.uniproc_wakeup_extra t.timing);
        Queue.push rx t.datalink_q;
        ignore (Sim.Condvar.signal t.datalink_kick ()));
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
        match Queue.take_opt t.datalink_q with
        | None ->
          Sim.Condvar.await t.datalink_kick;
          loop ()
        | Some (frame, call) ->
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
  Engine.schedule_fn t.eng ~after:ipi ~fn:t.ipi_prod ~a:call ~b:0

let frames_received t = t.c_rx
let frames_to_datalink t = t.c_slow
let frames_dropped t = t.c_drop
let interrupts_taken t = t.c_irq
