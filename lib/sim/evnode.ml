(* The flat event node shared by the simulator's two event queues: the
   4-ary heaps and the calendar queue.

   Historically every scheduled event was a closure, so the busiest path
   in the simulator — schedule, pop, fire, reschedule — allocated a
   closure (and often an [option] wrapper for the delay) per event even
   though the queue node itself was recycled.  The flat node carries the
   ordering key, a small payload (two immediate ints and two GC'd slots)
   and a {e dispatch index} into the owning engine's handler table; a
   steady-state schedule/fire cycle touches nothing but recycled nodes
   and so allocates zero bytes.  Irregular or cold callers still pass a
   closure ([fn = closure_fn], closure in [run]).

   Every node has a fixed [id] into its pool's registry, so the event
   queue and the free stack hold ints rather than pointers: on the hot
   path, storing a pointer into a heap block costs an OCaml write
   barrier ([caml_modify]), several times the cost of an int store.

   [link1] is the calendar queue's bucket chain (next in the bucket's
   sorted list); its contents are unspecified while a node is free or
   in the heaps.  A single sentinel [null] stands for "no node",
   avoiding an [option] per link; nothing ever writes to the sentinel's
   fields. *)

(* Field order is deliberate: the ordering key, the registry id and the
   link — all a heap insert or a calendar bucket scan ever touch — share
   the node's first cache line; the payload fields are read once per
   event at dispatch. *)
type t = {
  mutable time : Time.t;
  mutable tie : int;
  mutable seq : int;
  id : int;  (* index in the owning pool's registry; -1 for [null] *)
  mutable link1 : t;
  mutable fn : int;  (* handler-table index, or [closure_fn] for [run] *)
  mutable i0 : int;
  mutable i1 : int;
  mutable o0 : Obj.t;
  mutable o1 : Obj.t;
  mutable run : unit -> unit;
}

let closure_fn = -1
let no_obj = Obj.repr ()

(* The one scrubbed [run] value, so [recycle] can tell by physical
   equality that there is nothing to scrub. *)
let no_run () = ()

let rec null =
  {
    time = Time.zero;
    tie = 0;
    seq = 0;
    id = -1;
    link1 = null;
    fn = closure_fn;
    i0 = 0;
    i1 = 0;
    o0 = no_obj;
    o1 = no_obj;
    run = no_run;
  }

let[@inline] is_null n = n == null

(* [nodes.(0 .. count-1)] is every node the pool ever made, each at its
   own [id]; [free.(0 .. nfree-1)] is a stack of the ids not in use.
   Nodes are never handed back to the GC, so the registry holds the
   engine's peak number of pending events. *)
type pool = {
  mutable nodes : t array;
  mutable count : int;
  mutable free : int array;
  mutable nfree : int;
}

let create_pool () = { nodes = Array.make 64 null; count = 0; free = Array.make 64 0; nfree = 0 }

let[@inline] node pool id = pool.nodes.(id)

(* Cold path: register a new node, doubling the registry when full.
   The free stack grows with it, since it must be able to hold every
   id; it is empty whenever this runs, so nothing is copied. *)
let fresh pool ~time ~tie ~seq =
  let id = pool.count in
  if id = Array.length pool.nodes then begin
    let nodes = Array.make (2 * id) null in
    Array.blit pool.nodes 0 nodes 0 id;
    pool.nodes <- nodes;
    pool.free <- Array.make (2 * id) 0
  end;
  let n =
    {
      time;
      tie;
      seq;
      id;
      link1 = null;
      fn = closure_fn;
      i0 = 0;
      i1 = 0;
      o0 = no_obj;
      o1 = no_obj;
      run = no_run;
    }
  in
  pool.nodes.(id) <- n;
  pool.count <- id + 1;
  n

let alloc pool ~time ~tie ~seq =
  if pool.nfree = 0 then fresh pool ~time ~tie ~seq
  else begin
    let k = pool.nfree - 1 in
    pool.nfree <- k;
    let n = pool.nodes.(pool.free.(k)) in
    n.time <- time;
    n.tie <- tie;
    n.seq <- seq;
    n
  end

(* Scrub the GC'd slots before recycling so a parked free node cannot
   keep a closure (and whatever it captured) alive.  Storing into an
   [Obj.t] or closure field calls [caml_modify] whatever the value, so
   a slot is only written when it holds something to drop: the flat
   path (int payload, no closure) recycles with int stores only. *)
let[@inline] recycle pool n =
  n.fn <- closure_fn;
  if Obj.is_block n.o0 then n.o0 <- no_obj;
  if Obj.is_block n.o1 then n.o1 <- no_obj;
  if n.run != no_run then n.run <- no_run;
  pool.free.(pool.nfree) <- n.id;
  pool.nfree <- pool.nfree + 1

(* The engine's (time, tie, seq) total order: seq is unique across live
   events, so equal keys never happen and pop order is independent of
   queue internals. *)
let[@inline] leq a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c < 0
  else if a.tie <> b.tie then a.tie < b.tie
  else a.seq <= b.seq
