(* The hot path — schedule, pop, dispatch — is built around the flat
   event nodes of {!Evnode}: an event is a pooled record carrying a
   dispatch index into the engine's handler table plus immediate payload
   slots, so the steady state allocates nothing.  Closures remain as the
   cold-path fallback ({!schedule}) and for irregular callers.

   Two interchangeable queue disciplines order the events: the 4-ary
   heaps ({!Eventq}, the default) and the calendar queue ({!Calendar}).
   Both pop in exact [(time, tie, seq)] order, so the choice is purely a
   performance knob — byte-identical output either way.

   A timeout ({!suspend_timeout}) is an ordinary queued node, which
   {!Eventq} files in a heap of its own.  The retransmit pattern cancels
   nearly every one: [wake] marks the node dead in place ([fn_dead]),
   and when it reaches the head of the queue [dispatch] recycles it
   without touching the clock or the event count. *)

type queue = Heap of Eventq.t | Cal of Calendar.t

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable executed : int;
  mutable suspended : int;
  queue : queue;
  pool : Evnode.pool;
  mutable handlers : (int -> int -> Obj.t -> Obj.t -> unit) array;
  mutable nhandlers : int;
  mutable pending_span : Time.span;
      (* argument drop-box for [on_delay]: the effect handler stashes the
         span here and returns the one preallocated closure, instead of
         allocating a fresh closure per [delay] — the busiest effect in
         every model (cpu charges, wire times) *)
  mutable on_delay : (unit, unit) Effect.Deep.continuation -> unit;
  engine_rng : Rng.t;
  (* [None] = FIFO ties (the historical order); [Some rng] draws a
     random tie key per event, so same-instant events interleave in a
     seed-controlled but arbitrary order.  The rng is separate from
     [engine_rng] so schedule exploration does not perturb model
     randomness (loss processes, idle-load gaps). *)
  tie_rng : Rng.t option;
  engine_trace : Trace.t;
}

(* The one-shot guard [cell] is shared between a waker and any waker
   derived from it (see [suspend_timeout]), so racing resumption paths —
   normal wake vs. timeout — cannot both fire the continuation.  [timer]
   is the queued timeout node, if any, marked dead when the waker
   fires. *)
type fired_cell = { mutable fired : bool; mutable timer : Evnode.t }

type 'a waker = {
  cell : fired_cell;
  fire : 'a -> unit;
  owner : t;
}

exception Not_in_process

(* Built-in dispatch indices.  [fn_fire]: o0 = the waker's fire closure,
   o1 = the wake value.  [fn_delay]: o0 = the suspended continuation.
   [fn_timeout]: o0 = the waker to time out.  [register_handler] hands
   out indices from [nbuiltin] up.  [fn_dead] marks a cancelled timeout,
   which is recycled unrun. *)
let fn_fire = 0
let fn_delay = 1
let fn_timeout = 2
let nbuiltin = 3
let fn_dead = -2

let q_is_empty t =
  match t.queue with Heap q -> Eventq.is_empty q | Cal c -> Calendar.is_empty c

let q_min_time t =
  match t.queue with Heap q -> Eventq.min_time q | Cal c -> Calendar.min_time c

let q_insert t n =
  match t.queue with Heap q -> Eventq.insert q n | Cal c -> Calendar.insert c n

let q_insert_timer t n =
  match t.queue with Heap q -> Eventq.insert_timer q n | Cal c -> Calendar.insert c n

let q_pop t = match t.queue with Heap q -> Eventq.pop q | Cal c -> Calendar.pop c

let now t = t.clock
let rng t = t.engine_rng
let trace t = t.engine_trace
let events_executed t = t.executed
let suspended_count t = t.suspended

(* Every event — flat or closure — draws its key here, so the
   (tie, seq) stream is a pure function of the schedule-call sequence,
   identical whichever queue or payload style the caller uses. *)
let alloc_keyed t time =
  if Time.compare time t.clock < 0 then invalid_arg "Engine.schedule_at: instant in the past";
  t.seq <- t.seq + 1;
  let tie =
    match t.tie_rng with
    | None -> 0
    | Some rng -> Rng.int rng 0x3fffffff
  in
  Evnode.alloc t.pool ~time ~tie ~seq:t.seq

let schedule_at t time run =
  let n = alloc_keyed t time in
  n.Evnode.run <- run;
  q_insert t n

let schedule t ?(after = Time.zero_span) run =
  if Time.span_is_negative after then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (Time.add t.clock after) run

let schedule_fn t ~after ~fn ~a ~b =
  if Time.span_is_negative after then invalid_arg "Engine.schedule_fn: negative delay";
  if fn < nbuiltin || fn >= t.nhandlers then invalid_arg "Engine.schedule_fn: unknown handler";
  let n = alloc_keyed t (Time.add t.clock after) in
  n.Evnode.fn <- fn;
  n.Evnode.i0 <- a;
  n.Evnode.i1 <- b;
  q_insert t n

let grow_handlers t =
  if t.nhandlers = Array.length t.handlers then begin
    let bigger = Array.make (2 * t.nhandlers) t.handlers.(0) in
    Array.blit t.handlers 0 bigger 0 t.nhandlers;
    t.handlers <- bigger
  end

let register_handler t f =
  grow_handlers t;
  let id = t.nhandlers in
  t.handlers.(id) <- (fun a b _ _ -> f a b);
  t.nhandlers <- id + 1;
  id

(* Effects interpreted by the per-process handler.  The engine is carried
   in the payload so a single global handler installation per process
   suffices; the handler checks it owns the effect and re-performs
   otherwise (supporting nested engines, which tests use). *)
type _ Effect.t +=
  | Delay : t * Time.span -> unit Effect.t
  | Suspend : t * ('a waker -> unit) -> 'a Effect.t

let wake w v =
  if w.cell.fired then false
  else begin
    w.cell.fired <- true;
    let eng = w.owner in
    let timer = w.cell.timer in
    if not (Evnode.is_null timer) then begin
      (* Cancel the pending timeout: it stays queued under its key, but
         dispatch will recycle it unrun.  Drop its waker now, so a dead
         node does not keep this process alive until the deadline. *)
      timer.Evnode.fn <- fn_dead;
      timer.Evnode.o0 <- Evnode.no_obj;
      w.cell.timer <- Evnode.null
    end;
    eng.suspended <- eng.suspended - 1;
    let n = alloc_keyed eng eng.clock in
    n.Evnode.fn <- fn_fire;
    n.Evnode.o0 <- Obj.repr w.fire;
    n.Evnode.o1 <- Obj.repr v;
    q_insert eng n;
    true
  end

let create ?(seed = 42) ?(tie_break = `Fifo) ?(queue = `Heap) () =
  let pool = Evnode.create_pool () in
  let unregistered = fun _ _ _ _ -> assert false in
  let t =
    {
      clock = Time.zero;
      seq = 0;
      executed = 0;
      suspended = 0;
      queue =
        (match queue with
        | `Heap -> Heap (Eventq.create ~pool ())
        | `Calendar -> Cal (Calendar.create ~pool ()));
      pool;
      handlers = Array.make 8 unregistered;
      nhandlers = nbuiltin;
      pending_span = Time.zero_span;
      on_delay = ignore;
      engine_rng = Rng.create ~seed;
      tie_rng =
        (match tie_break with
        | `Fifo -> None
        | `Random -> Some (Rng.create ~seed:(seed lxor 0x5bd1e995)));
      engine_trace = Trace.create ();
    }
  in
  t.on_delay <-
    (fun k ->
      let n = alloc_keyed t (Time.add t.clock t.pending_span) in
      n.Evnode.fn <- fn_delay;
      n.Evnode.o0 <- Obj.repr k;
      q_insert t n);
  t.handlers.(fn_fire) <- (fun _ _ o0 o1 -> (Obj.obj o0 : Obj.t -> unit) o1);
  t.handlers.(fn_delay) <-
    (fun _ _ o0 _ ->
      Effect.Deep.continue (Obj.obj o0 : (unit, unit) Effect.Deep.continuation) ());
  t.handlers.(fn_timeout) <-
    (fun _ _ o0 _ ->
      let w : Obj.t waker = Obj.obj o0 in
      (* This very node is being dispatched (and was already recycled);
         drop the cell's reference first so [wake] cannot mark a reused
         node dead. *)
      w.cell.timer <- Evnode.null;
      ignore (wake w (Obj.repr None)));
  t

let run_process t ?(name = "process") fn =
  let open Effect.Deep in
  let handle_exn exn =
    let bt = Printexc.get_raw_backtrace () in
    (match exn with
     | Stdlib.Exit -> ()
     | _ ->
       Printf.eprintf "[sim] process %S died: %s\n%!" name (Printexc.to_string exn);
       Printexc.raise_with_backtrace exn bt)
  in
  match_with fn ()
    {
      retc = ignore;
      exnc = handle_exn;
      effc =
        (fun (type a) (eff : a Effect.t) :
             (((a, unit) continuation -> unit) option) ->
          match eff with
          | Delay (t', span) when t' == t ->
            (* The preallocated [on_delay] (span via [pending_span]) runs
               synchronously as soon as this returns — nothing can
               overwrite the drop-box in between. *)
            t.pending_span <- span;
            Some t.on_delay
          | Suspend (t', register) when t' == t ->
            Some
              (fun (k : (a, unit) continuation) ->
                t.suspended <- t.suspended + 1;
                let w =
                  {
                    cell = { fired = false; timer = Evnode.null };
                    fire = continue k;
                    owner = t;
                  }
                in
                register w)
          | _ -> None);
    }

let spawn t ?(after = Time.zero_span) ?name fn =
  schedule t ~after (fun () -> run_process t ?name fn)

let delay t span =
  if Time.span_is_negative span then invalid_arg "Engine.delay: negative span";
  try Effect.perform (Delay (t, span)) with Effect.Unhandled _ -> raise Not_in_process

let suspend t register =
  try Effect.perform (Suspend (t, register)) with Effect.Unhandled _ -> raise Not_in_process

let suspend_timeout t ~timeout register =
  if Time.span_is_negative timeout then
    invalid_arg "Engine.suspend_timeout: negative timeout";
  suspend t (fun w ->
      register { cell = w.cell; fire = (fun v -> w.fire (Some v)); owner = t };
      let n = alloc_keyed t (Time.add t.clock timeout) in
      n.Evnode.fn <- fn_timeout;
      n.Evnode.o0 <- Obj.repr w;
      w.cell.timer <- n;
      q_insert_timer t n)

(* Copy out and recycle before dispatch: the handler may schedule,
   immediately reusing this node.  Branch on the payload style first so
   each side touches only the fields it dispatches.  A cancelled timeout
   is not an event: it leaves the clock and the count alone. *)
let[@inline] dispatch t (n : Evnode.t) =
  let fn = n.Evnode.fn in
  if fn = fn_dead then Evnode.recycle t.pool n
  else begin
    t.clock <- n.Evnode.time;
    t.executed <- t.executed + 1;
    if fn >= 0 then begin
      let i0 = n.Evnode.i0 and i1 = n.Evnode.i1 in
      let o0 = n.Evnode.o0 and o1 = n.Evnode.o1 in
      Evnode.recycle t.pool n;
      t.handlers.(fn) i0 i1 o0 o1
    end
    else begin
      let run = n.Evnode.run in
      Evnode.recycle t.pool n;
      run ()
    end
  end

let guard_failed t =
  failwith (Printf.sprintf "Engine.run: exceeded %d events (runaway model?)" t.executed)

(* The run loops are specialized per queue discipline so the hot loop
   calls the queue directly instead of re-matching the variant on every
   event; [max_events] is hoisted to one integer compare. *)
let run_heap t q ~limit =
  let continue_ = ref true in
  while !continue_ do
    if t.executed >= limit then guard_failed t;
    if Eventq.is_empty q then continue_ := false
    else dispatch t (Eventq.pop q)
  done

let run_cal t c ~limit =
  let continue_ = ref true in
  while !continue_ do
    if t.executed >= limit then guard_failed t;
    if Calendar.is_empty c then continue_ := false
    else dispatch t (Calendar.pop c)
  done

let run ?max_events t =
  let limit = match max_events with None -> max_int | Some n -> n in
  match t.queue with Heap q -> run_heap t q ~limit | Cal c -> run_cal t c ~limit

let run_until ?max_events t stop =
  let limit = match max_events with None -> max_int | Some n -> n in
  let continue_ = ref true in
  while !continue_ do
    if t.executed >= limit then guard_failed t;
    if q_is_empty t then continue_ := false
    else if Time.compare (q_min_time t) stop > 0 then continue_ := false
    else dispatch t (q_pop t)
  done;
  if Time.compare t.clock stop < 0 then t.clock <- stop

let run_while ?max_events t p =
  let limit = match max_events with None -> max_int | Some n -> n in
  let continue_ = ref true in
  while !continue_ do
    if t.executed >= limit then guard_failed t;
    if (not (p ())) || q_is_empty t then continue_ := false
    else dispatch t (q_pop t)
  done
