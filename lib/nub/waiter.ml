module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing

type 'a t = {
  eng : Engine.t;
  timing : Timing.t;
  cpus : Cpu_set.t;
  queued : 'a Queue.t;  (* notified while the thread was not blocked *)
  cv : 'a Sim.Condvar.t;
  obs : Obs.Ctx.t;
  wake_hist : Obs.Metrics.Histogram.t;
  mutable notified_at : Time.t option;
  mutable w_call : int;
      (* trace call id carried from the last notify's waker to the woken
         thread, so server-side threads inherit the RPC they are woken
         for; pure bookkeeping, Sim.Trace.no_call when unknown *)
}

let create ~obs ~wake_hist eng timing ~cpus =
  {
    eng;
    timing;
    cpus;
    queued = Queue.create ();
    cv = Sim.Condvar.create eng;
    obs;
    wake_hist;
    notified_at = None;
    w_call = Sim.Trace.no_call;
  }

let busy_wait t = (Timing.config t.timing).Hw.Config.busy_wait

let cat = "send+receive"

(* Wakeup latency: from the waker's notify to this thread running again.
   The mark must be consumed on {e every} wait outcome: a timeout that
   leaves [notified_at] set would be charged to the next wakeup, which
   could look seconds long. *)
let record_wakeup t =
  (match t.notified_at with
  | Some at0 -> Obs.Metrics.Histogram.observe_span t.wake_hist (Time.diff (Engine.now t.eng) at0)
  | None -> ());
  t.notified_at <- None

(* Adopt the waker's call id so the woken thread's subsequent charges
   (dispatch, unmarshalling, the server procedure) attribute to the RPC
   that woke it.  Never clobber a valid id with "unknown": the caller
   thread already carries its own call id across its await. *)
let adopt_call t ctx =
  if t.w_call >= 0 then Cpu_set.set_trace_call ctx t.w_call;
  t.w_call <- Sim.Trace.no_call

let clear_notified t = t.notified_at <- None

(* A queued value: the thread never blocked for it, so no dispatch. *)
let take t ctx =
  let v = Queue.take t.queued in
  adopt_call t ctx;
  record_wakeup t;
  v

let poll t ctx = if Queue.is_empty t.queued then None else Some (take t ctx)

let spin t ctx ~deadline =
  let rec loop () =
    if not (Queue.is_empty t.queued) then Some (take t ctx)
    else
      match deadline with
      | Some d when Time.compare (Engine.now t.eng) d >= 0 ->
        clear_notified t;
        None
      | _ ->
        Cpu_set.charge ctx ~cat ~label:"Busy-wait poll" (Timing.busy_wait_poll t.timing);
        (* Release the CPU each iteration so interrupt work can run even
           on a uniprocessor ("relinquish control whenever the scheduler
           demanded", §4.2.7). *)
        Cpu_set.yield_cpu ctx (fun () -> ());
        loop ()
  in
  loop ()

(* The woken thread pays to be dispatched onto a processor. *)
let woken t ctx =
  adopt_call t ctx;
  Cpu_set.charge ctx ~cat ~label:"Dispatch woken thread" (Timing.dispatch t.timing);
  record_wakeup t

let wait t ctx =
  if busy_wait t then Option.get (spin t ctx ~deadline:None)
  else if not (Queue.is_empty t.queued) then take t ctx
  else
    let v = Cpu_set.yield_cpu ctx (fun () -> Sim.Condvar.await t.cv) in
    woken t ctx;
    v

let wait_timeout t ctx ~timeout =
  if busy_wait t then spin t ctx ~deadline:(Some (Time.add (Engine.now t.eng) timeout))
  else if not (Queue.is_empty t.queued) then Some (take t ctx)
  else
    match Cpu_set.yield_cpu ctx (fun () -> Sim.Condvar.await_timeout t.cv ~timeout) with
    | Some _ as v ->
      woken t ctx;
      v
    | None ->
      (* A notify may have raced the timeout (its value queued after the
         deadline fired); drop its mark either way. *)
      clear_notified t;
      None

let notify t ~waker v =
  Obs.Ctx.record t.obs ~at:(Engine.now t.eng) ~site:(Cpu_set.site t.cpus) Obs.Journal.Thread_wakeup;
  if t.notified_at = None then t.notified_at <- Some (Engine.now t.eng);
  (let c = Cpu_set.trace_call waker in
   if c >= 0 then t.w_call <- c);
  Cpu_set.charge waker ~cat ~label:"Wakeup RPC thread" (Timing.wakeup t.timing);
  Cpu_set.charge waker ~cat ~label:"Uniprocessor wakeup path"
    (Timing.uniproc_wakeup_extra t.timing);
  if busy_wait t || not (Sim.Condvar.signal t.cv v) then Queue.push v t.queued

module Pool = struct
  type 'a waiter = 'a t
  type 'a t = { idle : 'a waiter Queue.t; backlog : 'a Queue.t }

  let create () = { idle = Queue.create (); backlog = Queue.create () }

  let offer p ~waker v =
    if Queue.is_empty p.idle then false
    else begin
      notify (Queue.take p.idle) ~waker v;
      true
    end

  let queue p v = Queue.push v p.backlog

  let next p w ctx =
    if Queue.is_empty p.backlog then begin
      Queue.push w p.idle;
      wait w ctx
    end
    else Queue.take p.backlog
end
