(* A calendar queue over the shared flat event nodes ({!Evnode}): an
   alternative to the {!Eventq} heaps for the dense-timestamp
   regime that fleet simulations produce, selected per engine.

   Think of a desk calendar: an array of [nslots] buckets, each one
   "day" of [2^shift] nanoseconds wide, covering a sliding window of
   one "year" ([nslots] consecutive days) starting at the scan position
   [cur].  An event lands in bucket [(time >> shift) land mask]; within
   the window the mapping day->bucket is a bijection, so each bucket
   holds events of exactly one day, kept as a list sorted by the full
   (time, tie, seq) key (with a tail pointer, because the overwhelmingly
   common insert — same instant, rising seq — is an append).  Events
   beyond the window go to an overflow {!Eventq} (sharing the same
   node pool) and migrate into buckets as the window slides over them.

   Popping scans forward from [cur] for the first non-empty bucket —
   O(1) when timestamps are dense, which is the regime this queue is
   for.  If the whole window is empty, all remaining events are in
   overflow and the scan position jumps straight to the overflow
   minimum's day.

   The key is a total order, so the pop sequence is byte-identical to
   {!Eventq}'s whatever the bucket math does; the engine's
   determinism tests and the model property in [test/sim] hold the two
   structures (and a sorted list) to the same sequence.

   Resize policy: the bucket array doubles when occupancy exceeds two
   events per bucket and halves below one per eight (within
   [64, 65536]); on each resize the bucket width is re-derived from the
   observed event density — twice the mean inter-event gap, clamped to
   [2^6, 2^24] ns and rounded to a power of two — so a year neither
   collapses onto one bucket nor spreads one event per thousand days.
   Rebuilds cost O(events) and are amortized by the doubling. *)

type node = Evnode.t

let is_null = Evnode.is_null
let null = Evnode.null
let leq = Evnode.leq

let min_slots = 64
let max_slots = 65536
let min_shift = 6
let max_shift = 24
let default_shift = 12 (* 4.1 us days: the fleet charge/delay scale *)

type t = {
  pool : Evnode.pool;
  mutable heads : node array;
  mutable tails : node array;
  mutable nslots : int;
  mutable mask : int;
  mutable shift : int;
  mutable cur : int;  (* absolute day index (time asr shift) of the scan *)
  mutable ndirect : int;
  overflow : Eventq.t;
  mutable floor : Time.t;  (* last popped instant; seeds [cur] on resize *)
  mutable resizing : bool;
}

let create ?pool () =
  let pool = match pool with Some p -> p | None -> Evnode.create_pool () in
  {
    pool;
    heads = Array.make 256 null;
    tails = Array.make 256 null;
    nslots = 256;
    mask = 255;
    shift = default_shift;
    cur = 0;
    ndirect = 0;
    overflow = Eventq.create ~pool ();
    floor = Time.zero;
    resizing = false;
  }

let size t = t.ndirect + Eventq.size t.overflow
let is_empty t = size t = 0

let slot_of t (n : node) = Time.since_start_ns n.Evnode.time asr t.shift
let slot_of_time t time = Time.since_start_ns time asr t.shift

(* Sorted insert into bucket [b]; append is O(1). *)
let bucket_insert t b (n : node) =
  let head = t.heads.(b) in
  if is_null head then begin
    n.Evnode.link1 <- null;
    t.heads.(b) <- n;
    t.tails.(b) <- n
  end
  else if leq t.tails.(b) n then begin
    n.Evnode.link1 <- null;
    t.tails.(b).Evnode.link1 <- n;
    t.tails.(b) <- n
  end
  else if leq n head then begin
    n.Evnode.link1 <- head;
    t.heads.(b) <- n
  end
  else begin
    let prev = ref head in
    while not (is_null !prev.Evnode.link1) && leq !prev.Evnode.link1 n do
      prev := !prev.Evnode.link1
    done;
    n.Evnode.link1 <- !prev.Evnode.link1;
    !prev.Evnode.link1 <- n;
    if is_null n.Evnode.link1 then t.tails.(b) <- n
  end

(* The scan position must move back: an insert landed on a day before
   [cur] (possible after the scan jumped ahead over an empty window and
   the engine then scheduled something nearer).  Lower [cur] and evict
   direct events that fall off the far end of the shrunk-back window. *)
let rebase t s =
  let limit = s + t.nslots in
  for b = 0 to t.nslots - 1 do
    let keep_head = ref null and keep_tail = ref null in
    let cur = ref t.heads.(b) in
    while not (is_null !cur) do
      let n = !cur in
      cur := n.Evnode.link1;
      if slot_of t n >= limit then begin
        n.Evnode.link1 <- null;
        t.ndirect <- t.ndirect - 1;
        Eventq.insert t.overflow n
      end
      else begin
        n.Evnode.link1 <- null;
        if is_null !keep_head then keep_head := n else !keep_tail.Evnode.link1 <- n;
        keep_tail := n
      end
    done;
    t.heads.(b) <- !keep_head;
    t.tails.(b) <- !keep_tail
  done;
  t.cur <- s

let rec insert_direct t (n : node) =
  let s = slot_of t n in
  if s < t.cur then rebase t s;
  if s - t.cur < t.nslots then begin
    bucket_insert t (s land t.mask) n;
    t.ndirect <- t.ndirect + 1
  end
  else Eventq.insert t.overflow n

(* Pull overflow events whose day has entered the window. *)
and migrate t =
  while
    (not (Eventq.is_empty t.overflow))
    && slot_of_time t (Eventq.min_time t.overflow) - t.cur < t.nslots
  do
    insert_direct t (Eventq.pop t.overflow)
  done

let next_pow2 x =
  let r = ref 1 in
  while !r < x do
    r := !r * 2
  done;
  !r

(* Re-derive the bucket width from observed density and rebuild.  Only
   the direct events are rehashed; overflow migrates lazily. *)
let resize t ~nslots =
  t.resizing <- true;
  (* Collect direct events into one list, tracking span and count. *)
  let all = ref null in
  let tmin = ref max_int and tmax = ref min_int in
  for b = 0 to t.nslots - 1 do
    let cur = ref t.heads.(b) in
    while not (is_null !cur) do
      let n = !cur in
      cur := n.Evnode.link1;
      let ns = Time.since_start_ns n.Evnode.time in
      if ns < !tmin then tmin := ns;
      if ns > !tmax then tmax := ns;
      n.Evnode.link1 <- !all;
      all := n
    done;
    t.heads.(b) <- null;
    t.tails.(b) <- null
  done;
  let count = t.ndirect in
  t.ndirect <- 0;
  if count > 1 then begin
    let gap = max 1 ((!tmax - !tmin) / (count - 1)) in
    let width = min (1 lsl max_shift) (max (1 lsl min_shift) (next_pow2 (2 * gap))) in
    let shift = ref 0 in
    while 1 lsl !shift < width do
      incr shift
    done;
    t.shift <- !shift
  end;
  if nslots <> t.nslots then begin
    t.nslots <- nslots;
    t.mask <- nslots - 1;
    t.heads <- Array.make nslots null;
    t.tails <- Array.make nslots null
  end;
  t.cur <-
    (let fl = Time.since_start_ns t.floor asr t.shift in
     if count > 0 then min fl (!tmin asr t.shift) else fl);
  let cur = ref !all in
  while not (is_null !cur) do
    let n = !cur in
    cur := n.Evnode.link1;
    n.Evnode.link1 <- null;
    insert_direct t n
  done;
  migrate t;
  t.resizing <- false

let maybe_resize t =
  if not t.resizing then
    if t.ndirect > 2 * t.nslots && t.nslots < max_slots then
      resize t ~nslots:(t.nslots * 2)
    else if t.ndirect < t.nslots / 8 && t.nslots > min_slots then
      resize t ~nslots:(t.nslots / 2)

let insert t (n : node) =
  n.Evnode.link1 <- null;
  insert_direct t n;
  maybe_resize t

let add t ~time ~tie ~seq run =
  let n = Evnode.alloc t.pool ~time ~tie ~seq in
  n.Evnode.run <- run;
  insert t n

(* Advance the scan to the first non-empty bucket and return its head,
   leaving it in place.  Requires the queue non-empty. *)
let find_min t =
  migrate t;
  if t.ndirect = 0 then begin
    (* Whole window empty: jump the scan to the overflow minimum's day. *)
    t.cur <- slot_of_time t (Eventq.min_time t.overflow);
    migrate t
  end;
  let head = ref t.heads.(t.cur land t.mask) in
  while is_null !head do
    t.cur <- t.cur + 1;
    migrate t;
    head := t.heads.(t.cur land t.mask)
  done;
  !head

let min_time t =
  if is_empty t then invalid_arg "Calendar.min_time: empty";
  (find_min t).Evnode.time

let pop t =
  if is_empty t then invalid_arg "Calendar.pop: empty";
  let n = find_min t in
  let b = t.cur land t.mask in
  t.heads.(b) <- n.Evnode.link1;
  if is_null n.Evnode.link1 then t.tails.(b) <- null;
  n.Evnode.link1 <- null;
  t.ndirect <- t.ndirect - 1;
  t.floor <- n.Evnode.time;
  maybe_resize t;
  n
