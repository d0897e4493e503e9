(* The engine's default event queue: five parts over the registry ids
   of the shared flat event nodes ({!Evnode}) — three implicit 4-ary
   min-heaps and two sorted runs.

   A position is four ints in one array: a copy of the node's
   (time, tie, seq) key followed by its id.  Sifting and appending
   compare and move only ints, so inserting and popping make no
   write-barrier call, and neither leaves the key arrays to read a node.

   Pop takes the smallest of the five heads, so which part an event
   joins decides only what its insert costs: the pop order is the exact
   total key order either way.  Ordinary events are split by due time.
   [near] holds those due less than [near_span] after the last pop; the
   rest are far.  Timeouts ({!insert_timer}) are a class of their own:
   nearly all are cancelled long before they are due and wait here as
   dead entries until their deadline.

   The far class and the timer class are each a sorted run in front of
   a heap.  A key that comes after its run's last key is appended to the
   run, a power-of-two ring, in O(1); any other goes to the class's
   heap.  The far keys that arrive in order are mostly retained-result
   reclaims due 5 s out, one per served call, and timeouts are mostly
   armed in deadline order, so the runs take the deep, ordered part of
   the queue and the heaps hold the rest.  With the runs, the far heap
   holds 4.0 entries at each pop on perfbench's pair-bulk (53.6 before
   them) and 3.3 on its fleet-incast (1,028).

   The smallest head of the four far and timer parts, the lead, is kept
   as ints, so a pop from [near] (most pops on fleet-incast) compares
   two heads; a pop from another part looks at all four again. *)

type node = Evnode.t

let near_span = 1 lsl 17

(* A heap holds [len] positions of [keys] in heap order from position
   0; a run holds them in key order around the ring [keys] from
   position [head].  [keys] is a power of two positions long. *)
type part = { mutable keys : int array; mutable head : int; mutable len : int }

type t = {
  near : part;
  far_run : part;
  far : part;
  timer_run : part;
  timers : part;
  (* Which of far_run, far, timer_run, timers (0-3, so the runs are
     even; -1 when all four are empty) holds the lead, and its key. *)
  mutable lead : int;
  mutable lead_time : int;
  mutable lead_tie : int;
  mutable lead_seq : int;
  mutable last : int;  (* due time of the last pop, in ns *)
  pool : Evnode.pool;
}

let part () = { keys = Array.make 256 0; head = 0; len = 0 }

let create ?pool () =
  let pool = match pool with Some p -> p | None -> Evnode.create_pool () in
  {
    near = part ();
    far_run = part ();
    far = part ();
    timer_run = part ();
    timers = part ();
    lead = -1;
    lead_time = 0;
    lead_tie = 0;
    lead_seq = 0;
    last = 0;
    pool;
  }

let size t = t.near.len + t.far_run.len + t.far.len + t.timer_run.len + t.timers.len
let is_empty t = t.near.len = 0 && t.lead < 0

(* Position [i]'s key orders before (time, tie, seq).  Keys are unique
   (seq is), so "not before" means "after". *)
let[@inline] before (k : int array) i (time : int) (tie : int) (seq : int) =
  let j = 4 * i in
  let x = k.(j) in
  x < time
  || x = time
     && (let y = k.(j + 1) in
         y < tie || (y = tie && k.(j + 2) < seq))

let[@inline] set (k : int array) i time tie seq id =
  let j = 4 * i in
  k.(j) <- time;
  k.(j + 1) <- tie;
  k.(j + 2) <- seq;
  k.(j + 3) <- id

let[@inline] copy (k : int array) ~src ~dst =
  let s = 4 * src and d = 4 * dst in
  k.(d) <- k.(s);
  k.(d + 1) <- k.(s + 1);
  k.(d + 2) <- k.(s + 2);
  k.(d + 3) <- k.(s + 3)

(* Double a full part, unwrapping a run to start at position 0. *)
let grow p =
  let k = p.keys and h = 4 * p.head in
  let n = Array.length k in
  let keys = Array.make (2 * n) 0 in
  Array.blit k h keys 0 (n - h);
  Array.blit k 0 keys (n - h) h;
  p.keys <- keys;
  p.head <- 0

let push h time tie seq id =
  if 4 * h.len = Array.length h.keys then grow h;
  let k = h.keys in
  let i = ref h.len in
  h.len <- h.len + 1;
  while !i > 0 && not (before k ((!i - 1) lsr 2) time tie seq) do
    let p = (!i - 1) lsr 2 in
    copy k ~src:p ~dst:!i;
    i := p
  done;
  set k !i time tie seq id

(* Drop the root: the last entry sifts down from the top. *)
let remove_min h =
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then begin
    let k = h.keys in
    let j = 4 * n in
    let time = k.(j) and tie = k.(j + 1) and seq = k.(j + 2) and id = k.(j + 3) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let c = (4 * !i) + 1 in
      if c >= n then sifting := false
      else begin
        let m = ref c in
        for d = c + 1 to if c + 3 < n then c + 3 else n - 1 do
          let e = 4 * !m in
          if before k d k.(e) k.(e + 1) k.(e + 2) then m := d
        done;
        if before k !m time tie seq then begin
          copy k ~src:!m ~dst:!i;
          i := !m
        end
        else sifting := false
      end
    done;
    set k !i time tie seq id
  end

(* Run [r]'s [i]-th position in key order. *)
let[@inline] slot r i = (r.head + i) land ((Array.length r.keys lsr 2) - 1)

(* Append to run [r] when the key comes after its last one; [false]
   leaves [r] as it was. *)
let append r time tie seq id =
  if r.len > 0 && not (before r.keys (slot r (r.len - 1)) time tie seq) then false
  else begin
    if 4 * r.len = Array.length r.keys then grow r;
    set r.keys (slot r r.len) time tie seq id;
    r.len <- r.len + 1;
    true
  end

(* Make part [i] the lead if (time, tie, seq), now queued in it, orders
   before the lead's key. *)
let[@inline] offer t i time tie seq =
  if
    t.lead < 0
    || time < t.lead_time
    || time = t.lead_time
       && (tie < t.lead_tie || (tie = t.lead_tie && seq < t.lead_seq))
  then begin
    t.lead <- i;
    t.lead_time <- time;
    t.lead_tie <- tie;
    t.lead_seq <- seq
  end

let[@inline] offer_head t i p =
  if p.len > 0 then
    let k = p.keys and j = 4 * p.head in
    offer t i k.(j) k.(j + 1) k.(j + 2)

let lead_part t =
  match t.lead with 0 -> t.far_run | 1 -> t.far | 2 -> t.timer_run | _ -> t.timers

(* The queue hands nodes back by id, so a node from another pool
   would pop as a stranger. *)
let check_pool t (n : node) =
  if Evnode.node t.pool n.Evnode.id != n then invalid_arg "Eventq.insert: foreign node"

(* File in [run] if the key extends it, else in [heap]; parts [i] and
   [i + 1]. *)
let[@inline] file t run heap i time tie seq id =
  if append run time tie seq id then offer t i time tie seq
  else begin
    push heap time tie seq id;
    offer t (i + 1) time tie seq
  end

let insert t (n : node) =
  check_pool t n;
  let time = Time.since_start_ns n.Evnode.time and tie = n.Evnode.tie in
  if time - t.last < near_span then push t.near time tie n.Evnode.seq n.Evnode.id
  else file t t.far_run t.far 0 time tie n.Evnode.seq n.Evnode.id

let insert_timer t (n : node) =
  check_pool t n;
  file t t.timer_run t.timers 2 (Time.since_start_ns n.Evnode.time) n.Evnode.tie n.Evnode.seq
    n.Evnode.id

let add t ~time ~tie ~seq run =
  let n = Evnode.alloc t.pool ~time ~tie ~seq in
  n.Evnode.run <- run;
  insert t n

(* [near]'s head is the queue minimum. *)
let[@inline] near_first t =
  t.near.len > 0 && (t.lead < 0 || before t.near.keys 0 t.lead_time t.lead_tie t.lead_seq)

(* Undefined when empty; callers check {!is_empty} first, as the
   engine's run loops already must. *)
let min_time t = Time.of_ns_since_start (if near_first t then t.near.keys.(0) else t.lead_time)

let all_after t time =
  let time = Time.since_start_ns time in
  (t.near.len = 0 || t.near.keys.(0) > time) && (t.lead < 0 || t.lead_time > time)

(* Remove and return the minimum node.  The caller dispatches its
   payload and recycles it (the engine copies the payload to locals,
   recycles, then dispatches, so the handler is free to schedule new
   events that reuse the node).
   @raise Invalid_argument when empty. *)
let pop t =
  if near_first t then begin
    let near = t.near in
    t.last <- near.keys.(0);
    let id = near.keys.(3) in
    remove_min near;
    Evnode.node t.pool id
  end
  else begin
    if t.lead < 0 then invalid_arg "Eventq.pop: empty";
    let p = lead_part t in
    let id = p.keys.((4 * p.head) + 3) in
    t.last <- t.lead_time;
    if t.lead land 1 = 0 then begin
      p.head <- slot p 1;
      p.len <- p.len - 1
    end
    else remove_min p;
    t.lead <- -1;
    offer_head t 0 t.far_run;
    offer_head t 1 t.far;
    offer_head t 2 t.timer_run;
    offer_head t 3 t.timers;
    Evnode.node t.pool id
  end

let advance t time = t.last <- Time.since_start_ns time

(* Closure-mode convenience for tests and cold callers: pop the minimum,
   recycle it, return its closure. *)
let pop_run t =
  let n = pop t in
  let run = n.Evnode.run in
  Evnode.recycle t.pool n;
  run
