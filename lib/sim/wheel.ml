(* A hierarchical timer wheel for the retransmit-timeout pattern: arm a
   timer, almost always cancel it before it fires.

   The main event queue is the wrong home for such timers — a cancelled
   timer left in a heap is a dead node that sifts through every
   subsequent operation, and fleets arm one 50 ms retransmit timer per
   outstanding call.  Here a timer lives in a circular doubly-linked
   slot list, so cancellation is an O(1) unlink that recycles the node
   immediately.

   Four levels of 256 slots; level 0 slots are 2^16 ns (65.5 us) wide,
   each higher level 256x coarser, covering ~78 hours; beyond that a
   timer clamps into the farthest level-3 slot and re-arms on cascade.
   [cur0] is the absolute level-0 slot index: every slot before it has
   been flushed.  When the engine is about to execute events up to time
   T it first {!advance}s the wheel, which flushes each expiring slot's
   nodes — with their original (time, tie, seq) keys — into the main
   queue via the [insert] callback; the queue orders them exactly where
   a directly-scheduled event would have popped, so the wheel is
   invisible to determinism.  A timer whose deadline falls below wheel
   granularity ({!arm} returns [false]) is scheduled directly on the
   main queue by the caller.

   Cascading: when [cur0] crosses a multiple of 256 the next level-1
   slot has arrived and its nodes re-arm (landing at level 0 or, for
   clamped nodes, high again), higher levels first at coarser
   boundaries.  Occupancy counts let {!advance} jump empty stretches a
   256-slot block at a time instead of probing 15,000 empty slots per
   millisecond. *)

type node = Evnode.t

let nslots = 256
let smask = nslots - 1
let level0_shift = 16

type t = {
  pool : Evnode.pool;
  slots : node array array;  (* 4 levels x 256 circular-list sentinels *)
  counts : int array;  (* live nodes per level *)
  mutable cur0 : int;  (* absolute level-0 slot; all earlier slots flushed *)
  mutable size : int;
}

let create ?pool () =
  let pool = match pool with Some p -> p | None -> Evnode.create_pool () in
  {
    pool;
    slots = Array.init 4 (fun _ -> Array.init nslots (fun _ -> Evnode.sentinel ()));
    counts = Array.make 4 0;
    cur0 = 0;
    size = 0;
  }

let pool t = t.pool
let size t = t.size
let is_empty t = t.size = 0

(* No armed node can expire before this instant (every slot below [cur0]
   has been flushed, and a node arms only at or after [cur0]).  The
   engine caches it so the per-event wheel check is one comparison. *)
let horizon t = Time.of_ns_since_start (t.cur0 lsl level0_shift)

(* Append before the sentinel (slot order is arrival order; the main
   queue re-establishes key order at flush time). *)
let link_tail (s : node) (n : node) =
  let last = s.Evnode.link0 in
  n.Evnode.link0 <- last;
  n.Evnode.link1 <- s;
  last.Evnode.link1 <- n;
  s.Evnode.link0 <- n

let arm t (n : node) =
  let tns = Time.since_start_ns n.Evnode.time in
  if tns asr level0_shift < t.cur0 then false
  else begin
    (* Lowest level whose slot for [n] has not yet arrived-or-passed;
       placement guarantees the slot cascades (or flushes) strictly
       before the deadline. *)
    let level = ref (-1) in
    let l = ref 0 in
    while !level < 0 && !l < 4 do
      if (tns asr (level0_shift + (8 * !l))) - (t.cur0 asr (8 * !l)) < nslots
      then level := !l;
      incr l
    done;
    let bucket =
      if !level >= 0 then (tns asr (level0_shift + (8 * !level))) land smask
      else begin
        (* Beyond the horizon: park in the farthest level-3 slot and
           re-examine on cascade. *)
        level := 3;
        ((t.cur0 asr 24) + smask) land smask
      end
    in
    link_tail t.slots.(!level).(bucket) n;
    n.Evnode.home <- !level;
    n.Evnode.in_wheel <- true;
    t.counts.(!level) <- t.counts.(!level) + 1;
    t.size <- t.size + 1;
    true
  end

let cancel t (n : node) =
  if not n.Evnode.in_wheel then false
  else begin
    let prev = n.Evnode.link0 and next = n.Evnode.link1 in
    prev.Evnode.link1 <- next;
    next.Evnode.link0 <- prev;
    n.Evnode.in_wheel <- false;
    t.counts.(n.Evnode.home) <- t.counts.(n.Evnode.home) - 1;
    t.size <- t.size - 1;
    Evnode.recycle t.pool n;
    true
  end

let unlink_all t l b each =
  let s = t.slots.(l).(b) in
  let cur = ref s.Evnode.link1 in
  while !cur != s do
    let n = !cur in
    cur := n.Evnode.link1;
    n.Evnode.in_wheel <- false;
    t.counts.(l) <- t.counts.(l) - 1;
    t.size <- t.size - 1;
    each n
  done;
  s.Evnode.link0 <- s;
  s.Evnode.link1 <- s

(* A higher-level slot's time has arrived: its nodes re-arm and land at
   a lower level (never back in the same slot — a node with its level-l
   slot current always fits level l-1). *)
let cascade t l b = unlink_all t l b (fun n -> ignore (arm t n))

(* Called just after [cur0] advanced to a multiple of 256: higher levels
   first, so their nodes trickle down into the level-1 slot that is
   about to cascade. *)
let do_cascades t =
  let c1 = t.cur0 asr 8 in
  if c1 land smask = 0 then begin
    let c2 = c1 asr 8 in
    if c2 land smask = 0 then cascade t 3 ((c2 asr 8) land smask);
    cascade t 2 (c2 land smask)
  end;
  cascade t 1 (c1 land smask)

(* Flush the current level-0 slot into the main queue, advance one
   slot, cascade on block boundaries.  Returns how many nodes moved. *)
let step1 t ~insert =
  let moved = ref 0 in
  unlink_all t 0 (t.cur0 land smask) (fun n ->
      insert n;
      incr moved);
  t.cur0 <- t.cur0 + 1;
  if t.cur0 land smask = 0 then do_cascades t;
  !moved

(* Jump empty level-0 stretches block-by-block (cascading at each
   boundary) instead of probing slots one at a time.  [limit] bounds the
   jump (exclusive target). *)
let skip_empty t ~limit =
  if t.size = 0 then begin
    if t.cur0 < limit then t.cur0 <- limit
  end
  else
    while t.counts.(0) = 0 && t.cur0 < limit do
      let boundary = (t.cur0 lor smask) + 1 in
      if boundary <= limit then begin
        t.cur0 <- boundary;
        do_cascades t
      end
      else t.cur0 <- limit
    done

let advance t ~upto ~insert =
  let target = Time.since_start_ns upto asr level0_shift in
  let limit = target + 1 in
  skip_empty t ~limit;
  while t.cur0 <= target && t.size > 0 do
    ignore (step1 t ~insert);
    skip_empty t ~limit
  done

(* The main queue ran dry but timers remain: roll the wheel forward
   until at least one lands.  Termination: level-0 occupancy means a
   node within the next 256 slots; otherwise each boundary jump
   cascades and strictly advances [cur0]. *)
let flush_earliest t ~insert =
  let moved = ref 0 in
  while !moved = 0 && t.size > 0 do
    while t.counts.(0) = 0 && t.size > 0 do
      t.cur0 <- (t.cur0 lor smask) + 1;
      do_cascades t
    done;
    if t.size > 0 then moved := !moved + step1 t ~insert
  done
