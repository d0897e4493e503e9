module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing

type t = {
  eng : Engine.t;
  timing : Timing.t;
  cpus : Cpu_set.t;
  mutable pending : int;
  cv : unit Sim.Condvar.t;
  obs : Obs.Ctx.t;
  wake_hist : Obs.Metrics.Histogram.t;
  mutable notified_at : Time.t option;
  mutable w_call : int;
      (* trace call id carried from the last notify's waker to the woken
         thread, so server-side threads inherit the RPC they are woken
         for; pure bookkeeping, Sim.Trace.no_call when unknown *)
}

let create ~obs eng timing ~cpus =
  {
    eng;
    timing;
    cpus;
    pending = 0;
    cv = Sim.Condvar.create eng;
    obs;
    wake_hist =
      Obs.Metrics.Registry.histogram obs.Obs.Ctx.metrics ~site:(Cpu_set.site cpus)
        ~name:"wakeup_latency_us";
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

let spin t ctx ~deadline =
  let rec loop () =
    if t.pending > 0 then begin
      t.pending <- t.pending - 1;
      adopt_call t ctx;
      record_wakeup t;
      `Ok
    end
    else
      match deadline with
      | Some d when Time.compare (Engine.now t.eng) d >= 0 ->
        clear_notified t;
        `Timeout
      | _ ->
        Cpu_set.charge ctx ~cat ~label:"Busy-wait poll" (Timing.busy_wait_poll t.timing);
        (* Release the CPU each iteration so interrupt work can run even
           on a uniprocessor ("relinquish control whenever the scheduler
           demanded", §4.2.7). *)
        Cpu_set.yield_cpu ctx (fun () -> ());
        loop ()
  in
  loop ()

let wait_common t ctx ~timeout =
  if busy_wait t then
    let deadline = Option.map (fun d -> Time.add (Engine.now t.eng) d) timeout in
    spin t ctx ~deadline
  else if t.pending > 0 then begin
    t.pending <- t.pending - 1;
    adopt_call t ctx;
    record_wakeup t;
    `Ok
  end
  else begin
    let outcome =
      Cpu_set.yield_cpu ctx (fun () ->
          match timeout with
          | None ->
            Sim.Condvar.await t.cv;
            `Ok
          | Some d -> (
            match Sim.Condvar.await_timeout t.cv ~timeout:d with
            | Some () -> `Ok
            | None -> `Timeout))
    in
    (match outcome with
    | `Ok ->
      adopt_call t ctx;
      (* The woken thread pays to be dispatched onto a processor. *)
      Cpu_set.charge ctx ~cat ~label:"Dispatch woken thread" (Timing.dispatch t.timing);
      record_wakeup t
    | `Timeout ->
      (* A notify may have raced the timeout (signal consumed or pending
         incremented after the deadline fired); drop its mark either
         way. *)
      clear_notified t);
    outcome
  end

let wait t ctx =
  match wait_common t ctx ~timeout:None with
  | `Ok -> ()
  | `Timeout -> assert false

let wait_timeout t ctx ~timeout = wait_common t ctx ~timeout:(Some timeout)

let notify t ~waker =
  Obs.Ctx.record t.obs ~at:(Engine.now t.eng) ~site:(Cpu_set.site t.cpus) Obs.Journal.Thread_wakeup;
  if t.notified_at = None then t.notified_at <- Some (Engine.now t.eng);
  (let c = Cpu_set.trace_call waker in
   if c >= 0 then t.w_call <- c);
  Cpu_set.charge waker ~cat ~label:"Wakeup RPC thread" (Timing.wakeup t.timing);
  Cpu_set.charge waker ~cat ~label:"Uniprocessor wakeup path"
    (Timing.uniproc_wakeup_extra t.timing);
  if busy_wait t then t.pending <- t.pending + 1
  else if not (Sim.Condvar.signal t.cv ()) then t.pending <- t.pending + 1
