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
   {!Eventq} files in a class of its own (a sorted run, and a heap for
   the few armed out of deadline order).  The retransmit pattern cancels
   nearly every one: [wake] marks the node dead in place ([fn_dead]),
   and when it reaches the head of the queue [dispatch] recycles it
   without touching the clock or the event count.

   Most events resume a {!delay}, and most delays never reach the
   queue.  One whose wake-up sorts before everything queued resumes in
   place: [delay] advances the clock, draws the key and counts the event
   exactly as the run loop's next pop and dispatch would, and returns —
   no effect, no node, no queue round trip.  On a heap engine, one whose
   wake-up comes after some queued events waits nested: it runs the run
   loop's own dispatch on the delaying process's stack for every event
   that orders before its key, then resumes in place the same way.  The
   nested waits form a stack, each due strictly before the one below it
   ([inner_time]), so the innermost always resumes first.  A delay that
   can do neither, or a nested wait whose loop must stop or whose
   dispatch raised, is queued under its key through the engine's one
   preallocated [Delay] effect.  Which way a delay waits depends on what
   the innermost run loop publishes ([loop_limit], [loop_stop],
   [loop_pred]), the innermost nested wait's due time, and the queue's
   heads ([q_all_after], [Eventq.head_before]). *)

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
  (* Argument drop-box for [on_delay]: a delay that queues stashes its
     key here (and, for a nested wait that ends in an exception, what to
     raise once it is queued) and performs the one preallocated
     [delay_eff], whose handler arm returns the one preallocated
     [on_delay], instead of allocating an effect, a closure and an
     option per [delay] — the busiest effect in every model. *)
  mutable pending_time : Time.t;
  mutable pending_tie : int;
  mutable pending_seq : int;
  mutable pending_exn : (exn * Printexc.raw_backtrace) option;
  delay_eff : unit Effect.t;
  on_delay : ((unit, unit) Effect.Deep.continuation -> unit) option;
  (* A process of this engine is running: set when one starts or is
     resumed, cleared when it yields or ends, and cleared (then put
     back) by a run loop entered from inside a process and while a
     nested wait dispatches. *)
  mutable in_process : bool;
  (* The innermost active run loop's [max_events], [run_until] stop and
     [run_while] predicate; meaningful only while [in_process]. *)
  mutable loop_limit : int;
  mutable loop_stop : Time.t;
  mutable loop_pred : unit -> bool;
  (* Due time of the innermost delay waiting nested, [forever] when
     none does. *)
  mutable inner_time : Time.t;
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

(* Every queued event is due strictly after [time]. *)
let q_all_after t time =
  match t.queue with
  | Heap q -> Eventq.all_after q time
  | Cal c -> Calendar.is_empty c || Time.(time < Calendar.min_time c)

let q_insert t n =
  match t.queue with Heap q -> Eventq.insert q n | Cal c -> Calendar.insert c n

let q_insert_timer t n =
  match t.queue with Heap q -> Eventq.insert_timer q n | Cal c -> Calendar.insert c n

(* What a pop of an event due at [time] would leave behind, without the
   event: the heap queue's near/far split keys off the last pop; the
   calendar's scan just starts further back at its next pop. *)
let q_advance t time = match t.queue with Heap q -> Eventq.advance q time | Cal _ -> ()

let now t = t.clock
let rng t = t.engine_rng
let trace t = t.engine_trace
let events_executed t = t.executed
let suspended_count t = t.suspended

(* Every event — flat or closure — draws its key here, so the
   (tie, seq) stream is a pure function of the schedule-call sequence,
   identical whichever queue or payload style the caller uses. *)
let[@inline] draw_tie t =
  t.seq <- t.seq + 1;
  match t.tie_rng with
  | None -> 0
  | Some rng -> Rng.int rng 0x3fffffff

let alloc_keyed t time =
  if Time.compare time t.clock < 0 then invalid_arg "Engine.schedule_at: instant in the past";
  let tie = draw_tie t in
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
   otherwise (supporting nested engines).  Each engine preallocates its
   one [Delay] value ([delay_eff]); the key travels in the drop-box
   ([pending_time], [pending_tie], [pending_seq]). *)
type _ Effect.t +=
  | Delay : t -> unit Effect.t
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

let always () = true
let forever = Time.of_ns_since_start max_int

let create ?(seed = 42) ?(tie_break = `Fifo) ?(queue = `Heap) () =
  let pool = Evnode.create_pool () in
  let unregistered = fun _ _ _ _ -> assert false in
  let rec t =
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
      pending_time = Time.zero;
      pending_tie = 0;
      pending_seq = 0;
      pending_exn = None;
      delay_eff = Delay t;
      on_delay =
        Some
          (fun k ->
            let n =
              Evnode.alloc t.pool ~time:t.pending_time ~tie:t.pending_tie ~seq:t.pending_seq
            in
            n.Evnode.fn <- fn_delay;
            n.Evnode.o0 <- Obj.repr k;
            q_insert t n;
            match t.pending_exn with
            | None -> ()
            | Some (e, bt) ->
              t.pending_exn <- None;
              Printexc.raise_with_backtrace e bt);
      in_process = false;
      loop_limit = 0;
      loop_stop = Time.zero;
      loop_pred = always;
      inner_time = forever;
      engine_rng = Rng.create ~seed;
      tie_rng =
        (match tie_break with
        | `Fifo -> None
        | `Random -> Some (Rng.create ~seed:(seed lxor 0x5bd1e995)));
      engine_trace = Trace.create ();
    }
  in
  t.handlers.(fn_fire) <-
    (fun _ _ o0 o1 ->
      t.in_process <- true;
      (Obj.obj o0 : Obj.t -> unit) o1);
  t.handlers.(fn_delay) <-
    (fun _ _ o0 _ ->
      t.in_process <- true;
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
    t.in_process <- false;
    let bt = Printexc.get_raw_backtrace () in
    (match exn with
     | Stdlib.Exit -> ()
     | _ ->
       Printf.eprintf "[sim] process %S died: %s\n%!" name (Printexc.to_string exn);
       Printexc.raise_with_backtrace exn bt)
  in
  t.in_process <- true;
  match_with fn ()
    {
      retc = (fun () -> t.in_process <- false);
      exnc = handle_exn;
      effc =
        (fun (type a) (eff : a Effect.t) :
             (((a, unit) continuation -> unit) option) ->
          match eff with
          | Delay t' when t' == t ->
            (* [on_delay] reads the key [delay] left in the drop-box; it
               runs synchronously as soon as this returns, so nothing
               can overwrite the drop-box in between. *)
            t.in_process <- false;
            t.on_delay
          | Suspend (t', register) when t' == t ->
            t.in_process <- false;
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

(* The event that would wake a delay at [at], run in place: what the
   loop's pop and [dispatch] of it would do to the clock, the count and
   the queue. *)
let[@inline] resume_in_place t at =
  t.clock <- at;
  t.executed <- t.executed + 1;
  q_advance t at

(* A queued delay: file the key [delay] drew, with the continuation, and
   once it is queued raise [exn] (a nested wait's failure) in the
   parent, the loop that resumed this process. *)
let queue_delay t at tie seq exn =
  t.pending_time <- at;
  t.pending_tie <- tie;
  t.pending_seq <- seq;
  t.pending_exn <- exn;
  Effect.perform t.delay_eff

(* Whether a nested wait for key (at, tie, seq) resumes: dispatch
   every queued event that orders before it while the run loop would
   go on.  [false] when the guard or the predicate stops the loop
   first, so the wait must queue for an enclosing loop to stop on.  The
   stop instant needs no check: a wait nests only when it is due by the
   stop, and so is every event that orders before it. *)
let rec nested_loop t q at tie seq =
  if t.executed >= t.loop_limit || not (t.loop_pred ()) then false
  else if Eventq.head_before q at tie seq then begin
    dispatch t (Eventq.pop q);
    nested_loop t q at tie seq
  end
  else true

let wait_nested t q at tie seq =
  let outer = t.inner_time in
  t.inner_time <- at;
  t.in_process <- false;
  match nested_loop t q at tie seq with
  | true ->
    t.inner_time <- outer;
    t.in_process <- true;
    resume_in_place t at
  | false ->
    t.inner_time <- outer;
    queue_delay t at tie seq None
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.inner_time <- outer;
    queue_delay t at tie seq (Some (e, bt))

(* A delay draws its key first, as the queue path always has, so the
   (tie, seq) stream is the same whichever way it waits.  It resumes in
   place when its wake-up would be the run loop's very next dispatch:
   the loop would go on (guard, stop instant and predicate, checked at
   the clock and state the loop would check them at), and nothing
   queued, nor any nested wait, is due at or before the wake-up.  An
   equal instant never qualifies: under FIFO ties a new key never
   precedes a queued one, and under random ties only strictly earlier
   instants qualify, so the tie never decides whether a delay resumes
   in place or nests.  A dead timeout counts as queued.  When queued
   events come first, a heap engine's delay waits nested instead. *)
let delay t span =
  if Time.span_is_negative span then invalid_arg "Engine.delay: negative span";
  if not t.in_process then raise Not_in_process;
  let at = Time.add t.clock span in
  let tie = draw_tie t in
  let seq = t.seq in
  if t.executed < t.loop_limit && Time.(at <= t.loop_stop) && Time.(at < t.inner_time) then
    if q_all_after t at then
      if t.loop_pred () then resume_in_place t at else queue_delay t at tie seq None
    else
      match t.queue with
      | Heap q -> wait_nested t q at tie seq
      | Cal _ -> queue_delay t at tie seq None
  else queue_delay t at tie seq None

let suspend t register =
  if not t.in_process then raise Not_in_process;
  Effect.perform (Suspend (t, register))

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

let guard_failed t =
  failwith (Printf.sprintf "Engine.run: exceeded %d events (runaway model?)" t.executed)

(* The run loops read their bounds from what [in_loop] published;
   [max_events] is hoisted to one integer compare.  Each loop is
   specialized per queue discipline so it calls the queue directly
   instead of re-matching the variant on every event. *)
let drain t =
  let limit = t.loop_limit in
  let continue_ = ref true in
  match t.queue with
  | Heap q ->
    while !continue_ do
      if t.executed >= limit then guard_failed t;
      if Eventq.is_empty q then continue_ := false else dispatch t (Eventq.pop q)
    done
  | Cal c ->
    while !continue_ do
      if t.executed >= limit then guard_failed t;
      if Calendar.is_empty c then continue_ := false else dispatch t (Calendar.pop c)
    done

let drain_until t =
  let limit = t.loop_limit and stop = t.loop_stop in
  let continue_ = ref true in
  match t.queue with
  | Heap q ->
    while !continue_ do
      if t.executed >= limit then guard_failed t;
      if Eventq.all_after q stop then continue_ := false else dispatch t (Eventq.pop q)
    done
  | Cal c ->
    while !continue_ do
      if t.executed >= limit then guard_failed t;
      if Calendar.is_empty c || Time.(stop < Calendar.min_time c) then continue_ := false
      else dispatch t (Calendar.pop c)
    done

let drain_while t =
  let limit = t.loop_limit and p = t.loop_pred in
  let continue_ = ref true in
  match t.queue with
  | Heap q ->
    while !continue_ do
      if t.executed >= limit then guard_failed t;
      if (not (p ())) || Eventq.is_empty q then continue_ := false
      else dispatch t (Eventq.pop q)
    done
  | Cal c ->
    while !continue_ do
      if t.executed >= limit then guard_failed t;
      if (not (p ())) || Calendar.is_empty c then continue_ := false
      else dispatch t (Calendar.pop c)
    done

let set_loop t ~limit ~stop ~pred ~in_process =
  t.loop_limit <- limit;
  t.loop_stop <- stop;
  t.loop_pred <- pred;
  t.in_process <- in_process

(* Publish this loop's bounds for [delay], and put the enclosing loop's
   back (with its [in_process]) however this one ends.  Allocates
   nothing: [body] is one of the top-level drains above.  No loop starts
   inside a nested wait: it would run the events queued after the
   waiter's key before the waiter. *)
let in_loop t ?max_events ~stop ~pred body =
  if Time.(t.inner_time < forever) then
    invalid_arg "Engine.run: a run loop cannot start while a delay waits nested";
  let limit = match max_events with None -> max_int | Some n -> n in
  let limit0 = t.loop_limit and stop0 = t.loop_stop and pred0 = t.loop_pred in
  let in_process0 = t.in_process in
  set_loop t ~limit ~stop ~pred ~in_process:false;
  match body t with
  | () -> set_loop t ~limit:limit0 ~stop:stop0 ~pred:pred0 ~in_process:in_process0
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    set_loop t ~limit:limit0 ~stop:stop0 ~pred:pred0 ~in_process:in_process0;
    Printexc.raise_with_backtrace e bt

let run ?max_events t = in_loop t ?max_events ~stop:forever ~pred:always drain

let run_until ?max_events t stop =
  in_loop t ?max_events ~stop ~pred:always drain_until;
  if Time.compare t.clock stop < 0 then t.clock <- stop

let run_while ?max_events t p = in_loop t ?max_events ~stop:forever ~pred:p drain_while
