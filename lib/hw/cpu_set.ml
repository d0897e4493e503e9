module Engine = Sim.Engine
module Time = Sim.Time

type affinity = Any | Cpu0
type priority = Interrupt | Thread

type t = {
  eng : Engine.t;
  name : string;
  n : int;
  busy : bool array;
  mutable nbusy : int;  (* how many of [busy] are set *)
  (* Waiters, woken with the index of the CPU handed to them. *)
  q0_int : int Sim.Condvar.t;
  q0_thread : int Sim.Condvar.t;
  q_any : int Sim.Condvar.t;
  level : Sim.Stats.Level.t;
  cpu0_level : Sim.Stats.Level.t;
  tracks : string array;  (* per-CPU trace track names, "cpu0".."cpuN-1" *)
}

type ctx = { set : t; affinity : affinity; mutable idx : int; mutable trace_id : int }

let create ~obs eng ~site ~cpus =
  if cpus < 1 then invalid_arg "Cpu_set.create: need at least one CPU";
  let now = Engine.now eng in
  let t =
    {
      eng;
      name = site;
      n = cpus;
      busy = Array.make cpus false;
      nbusy = 0;
      q0_int = Sim.Condvar.create eng;
      q0_thread = Sim.Condvar.create eng;
      q_any = Sim.Condvar.create eng;
      level = Sim.Stats.Level.create ~initial:0. ~at:now;
      cpu0_level = Sim.Stats.Level.create ~initial:0. ~at:now;
      tracks = Array.init cpus (Printf.sprintf "cpu%d");
    }
  in
  let reg = obs.Obs.Ctx.metrics in
  Obs.Metrics.Registry.register_level reg ~site ~name:"cpus.busy" t.level;
  Obs.Metrics.Registry.register_level reg ~site ~name:"cpus.cpu0_busy" t.cpu0_level;
  t

let site t = t.name

let note_levels t =
  let now = Engine.now t.eng in
  Sim.Stats.Level.set t.level (float_of_int t.nbusy) ~at:now;
  Sim.Stats.Level.set t.cpu0_level (if t.busy.(0) then 1. else 0.) ~at:now

let take t idx =
  t.busy.(idx) <- true;
  t.nbusy <- t.nbusy + 1;
  note_levels t

let free_index t idx =
  t.busy.(idx) <- false;
  t.nbusy <- t.nbusy - 1;
  note_levels t

(* Prefer the highest-numbered free CPU for Any requests so CPU 0 stays
   clear for interrupts on a multiprocessor. *)
let find_free_any t =
  let rec go i = if i < 0 then None else if not t.busy.(i) then Some i else go (i - 1) in
  go (t.n - 1)

(* A suspended acquire is CPU queueing delay: record it (kind [Queue])
   against the waiting call so the attribution engine can separate
   contention from service time.  The pre-suspend [Engine.now] is a pure
   read and [Sim.Trace.add] no-ops while tracing is off, so the untraced
   path is unchanged. *)
let suspend_queued t ~call q =
  let start_at = Engine.now t.eng in
  let idx = Sim.Condvar.await q in
  let stop_at = Engine.now t.eng in
  if Time.span_compare (Time.diff stop_at start_at) Time.zero_span > 0 then
    Sim.Trace.add ~track:t.tracks.(idx) ~kind:Sim.Trace.Queue ~call (Engine.trace t.eng)
      ~cat:"queue" ~label:"Wait for free CPU" ~site:t.name ~start_at ~stop_at;
  idx

let acquire t ~call ~affinity ~priority =
  match affinity with
  | Cpu0 ->
    if not t.busy.(0) then begin
      take t 0;
      0
    end
    else
      let q =
        match priority with
        | Interrupt -> t.q0_int
        | Thread -> t.q0_thread
      in
      suspend_queued t ~call q
  | Any -> (
    match find_free_any t with
    | Some i ->
      take t i;
      i
    | None -> suspend_queued t ~call t.q_any)

(* Handing a CPU to a waiter keeps it busy; only update levels when it
   actually goes idle. *)
let release t idx =
  let handed =
    if idx = 0 then
      Sim.Condvar.signal t.q0_int 0
      || Sim.Condvar.signal t.q0_thread 0
      || Sim.Condvar.signal t.q_any 0
    else Sim.Condvar.signal t.q_any idx
  in
  if not handed then free_index t idx

let with_cpu ?(affinity = Any) ?(priority = Thread) ?(call = Sim.Trace.no_call) t f =
  let idx = acquire t ~call ~affinity ~priority in
  let ctx = { set = t; affinity; idx; trace_id = call } in
  Fun.protect ~finally:(fun () -> release t ctx.idx) (fun () -> f ctx)

let charge ctx ~cat ~label d =
  if Time.span_compare d Time.zero_span > 0 then begin
    let t = ctx.set in
    let call = ctx.trace_id in
    let start_at = Engine.now t.eng in
    Engine.delay t.eng d;
    Sim.Trace.add ~track:t.tracks.(ctx.idx) ~call (Engine.trace t.eng) ~cat ~label ~site:t.name
      ~start_at ~stop_at:(Engine.now t.eng)
  end

let cpu_index ctx = ctx.idx
let track ctx = ctx.set.tracks.(ctx.idx)
let trace_call ctx = ctx.trace_id
let set_trace_call ctx call = ctx.trace_id <- call

let yield_cpu ctx f =
  let t = ctx.set in
  release t ctx.idx;
  (* Re-acquire even on exception so the enclosing [with_cpu] releases a
     CPU we actually hold.  The thread may come back on a different CPU,
     as on the real machine. *)
  Fun.protect
    ~finally:(fun () ->
      ctx.idx <- acquire t ~call:ctx.trace_id ~affinity:ctx.affinity ~priority:Thread)
    f

let average_busy t ~upto = Sim.Stats.Level.average t.level ~upto
let utilization t ~upto = average_busy t ~upto /. float_of_int t.n
let cpu0_utilization t ~upto = Sim.Stats.Level.average t.cpu0_level ~upto
let busy_now t = t.nbusy
