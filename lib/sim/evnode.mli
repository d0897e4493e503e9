(** The flat event node shared by the 4-ary-heap event queue
    ({!Eventq}) and the calendar queue ({!Calendar}).

    A node carries the engine's [(time, tie, seq)] ordering key, a
    closure-free payload (a handler-table index [fn] plus two immediate
    ints and two GC'd slots), a fixed [id] into its pool's registry,
    and the calendar's intrusive bucket link.  Nodes are recycled
    through a per-engine {!pool} whose free list is a stack of ids, so
    steady-state scheduling allocates nothing and recycling stores only
    ints; cold callers set [fn = closure_fn] and put a closure in [run]
    instead. *)

type t = {
  mutable time : Time.t;
  mutable tie : int;
  mutable seq : int;
  id : int;  (** index in the owning pool's registry; [-1] for {!null} *)
  mutable link1 : t;  (** next in a calendar bucket *)
  mutable fn : int;  (** handler-table index, or {!closure_fn} *)
  mutable i0 : int;
  mutable i1 : int;
  mutable o0 : Obj.t;
  mutable o1 : Obj.t;
  mutable run : unit -> unit;  (** dispatched when [fn = closure_fn] *)
}
(** Field order is deliberate: the ordering key, the id and the link —
    all a heap insert or a calendar scan ever touch — share the node's
    first cache line; the payload is read once at dispatch. *)

val closure_fn : int
(** The [fn] value meaning "dispatch the [run] closure". *)

val no_obj : Obj.t
(** The scrubbed value of the [o0]/[o1] slots (the unit value). *)

val null : t
(** The shared "no node" sentinel.  Never written to, so it is safe to
    share between engines in different domains. *)

val is_null : t -> bool

type pool
(** A registry of every node made so far (each at its [id]) and a stack
    of the free ids.  Nodes are never released to the GC: the registry
    grows to the peak number of pending events and stays there. *)

val create_pool : unit -> pool

val node : pool -> int -> t
(** [node pool id] is the node registered at [id]. *)

val alloc : pool -> time:Time.t -> tie:int -> seq:int -> t
(** A free node (or a freshly registered one when none is free) with
    the key filled in, [fn = closure_fn], and [run], [o0] and [o1]
    scrubbed.  Its link is unspecified; the calendar sets it on
    insert. *)

val recycle : pool -> t -> unit
(** Scrubs the GC'd slots that hold a pointer and pushes the node's id
    on the free stack.  The node must be out of every structure and
    recycled once. *)

val leq : t -> t -> bool
(** The engine's [(time, tie, seq)] total order. *)
