(* The engine's default event queue: three implicit 4-ary min-heaps
   over the registry ids of the shared flat event nodes ({!Evnode}).

   A heap position is four ints in one array: a copy of the node's
   (time, tie, seq) key followed by its id.  Sifting compares and moves
   only ints, so inserting and popping make no write-barrier call, and
   a sift never leaves the heap array to read a node.

   Pop takes the smallest of the three heads, so which heap an event
   joins decides only what its insert costs: the pop order is the exact
   total key order either way.  Ordinary events are split by due time.
   [near] holds those due less than [near_span] after the last pop,
   [far] the rest.  Most events are due within microseconds and meet a
   near heap a few entries deep, while the deep part of the queue —
   retained-result reclaims due 5 s out, every served call's — sits in
   [far], where a new key usually stays at the bottom.  With the
   boundary at 2^17 ns, the mean depth at each pop was 0.9 near + 53 far
   on perfbench's pair-bulk (where 41% of inserts go far) and 3.8 near +
   1,048 far on its fleet-incast (17% go far).

   [timers] holds the engine's timeouts ({!insert_timer}).  Nearly all
   are cancelled long before they are due and wait here as dead
   entries until their deadline.  In a heap of their own they do not
   deepen [far], and since they are mostly armed in deadline order, a
   push rarely sifts. *)

type node = Evnode.t

let near_span = 1 lsl 17

type heap = { mutable keys : int array; mutable len : int }

type t = {
  near : heap;
  far : heap;
  timers : heap;
  mutable last : int;  (* due time of the last pop, in ns *)
  pool : Evnode.pool;
}

let heap () = { keys = Array.make 256 0; len = 0 }

let create ?pool () =
  let pool = match pool with Some p -> p | None -> Evnode.create_pool () in
  { near = heap (); far = heap (); timers = heap (); last = 0; pool }

let size t = t.near.len + t.far.len + t.timers.len
let is_empty t = t.near.len = 0 && t.far.len = 0 && t.timers.len = 0

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

let push h time tie seq id =
  if 4 * h.len = Array.length h.keys then begin
    let keys = Array.make (2 * Array.length h.keys) 0 in
    Array.blit h.keys 0 keys 0 (4 * h.len);
    h.keys <- keys
  end;
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

(* The queue hands nodes back by id, so a node from another pool
   would pop as a stranger. *)
let check_pool t (n : node) =
  if Evnode.node t.pool n.Evnode.id != n then invalid_arg "Eventq.insert: foreign node"

let insert t (n : node) =
  check_pool t n;
  let time = Time.since_start_ns n.Evnode.time in
  push
    (if time - t.last < near_span then t.near else t.far)
    time n.Evnode.tie n.Evnode.seq n.Evnode.id

let insert_timer t (n : node) =
  check_pool t n;
  push t.timers (Time.since_start_ns n.Evnode.time) n.Evnode.tie n.Evnode.seq n.Evnode.id

let add t ~time ~tie ~seq run =
  let n = Evnode.alloc t.pool ~time ~tie ~seq in
  n.Evnode.run <- run;
  insert t n

(* The heap whose head is the queue minimum; an empty heap when the
   whole queue is empty. *)
let[@inline] first t =
  let near = t.near and far = t.far and timers = t.timers in
  let h =
    if far.len = 0 then near
    else if near.len = 0 then far
    else
      let k = far.keys in
      if before near.keys 0 k.(0) k.(1) k.(2) then near else far
  in
  if timers.len = 0 then h
  else if h.len = 0 then timers
  else
    let k = timers.keys in
    if before h.keys 0 k.(0) k.(1) k.(2) then h else timers

(* Undefined when empty; callers check {!is_empty} first, as the
   engine's run loops already must. *)
let min_time t = Time.of_ns_since_start (first t).keys.(0)

(* Remove and return the minimum node.  The caller dispatches its
   payload and recycles it (the engine copies the payload to locals,
   recycles, then dispatches, so the handler is free to schedule new
   events that reuse the node).
   @raise Invalid_argument when empty. *)
let pop t =
  let h = first t in
  if h.len = 0 then invalid_arg "Eventq.pop: empty";
  let k = h.keys in
  t.last <- k.(0);
  let id = k.(3) in
  remove_min h;
  Evnode.node t.pool id

let advance t time = t.last <- Time.since_start_ns time

(* Closure-mode convenience for tests and cold callers: pop the minimum,
   recycle it, return its closure. *)
let pop_run t =
  let n = pop t in
  let run = n.Evnode.run in
  Evnode.recycle t.pool n;
  run
