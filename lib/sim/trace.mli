(** Span tracing for latency accounting.

    The paper's Tables VI and VII are a per-step breakdown of where the
    time of one RPC goes.  To regenerate them, model code records a
    {e span} — a labelled interval of virtual time — for every fast-path
    step it executes.  Each span carries a {!kind} (service time vs
    queueing delay) and a per-call id, so the attribution engine
    ({!Obs.Attrib}) can rebuild each call's causal timeline, account it
    to named stages, and check that the stages conserve the measured
    end-to-end latency; Tables VI–VIII are read from that account.

    Call ids propagate across the wire by frame identity: the sender
    registers the frame bytes it hands to the controller
    ({!register_frame}), and the receive path recovers the id from the
    same physical buffer ({!frame_call}).

    Tracing is off by default (the throughput experiments execute
    millions of steps); experiments enable it around a single call.
    Every entry point here is a strict no-op (and allocates nothing)
    while tracing is disabled, keeping the untraced path byte-identical
    to a build without tracing at all. *)

type kind =
  | Service  (** time a resource spent working on the call *)
  | Queue  (** time the call waited for a busy resource *)

type span = {
  cat : string;  (** coarse grouping, e.g. ["send+receive"] or ["runtime"] *)
  label : string;  (** the paper's step name, e.g. ["wakeup RPC thread"] *)
  site : string;  (** machine/entity the time was spent on *)
  track : string;
      (** sub-entity within the site the time was spent on — a CPU
          ("cpu0"), the controller ("deqna"), the wire ("wire"); [""]
          when unattributed.  Drives per-track lanes in the Perfetto
          export ({!Obs.Trace_export}). *)
  start_at : Time.t;
  stop_at : Time.t;
  kind : kind;  (** service time or queueing delay; default [Service] *)
  call : int;
      (** id of the RPC this interval belongs to, allocated by
          {!new_call}; {!no_call} when the time is not attributable to
          any one call (idle load, background drains) *)
}

val no_call : int
(** The sentinel call id ([-1]) marking unattributed spans. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of retained spans; omitted (the
    default) means unbounded, the historical behaviour. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val set_capacity : t -> int option -> unit
(** Bounds (or, with [None], unbounds) retention for subsequent {!add}s;
    already-recorded spans are kept even if they exceed a new bound. *)

val add :
  ?track:string ->
  ?kind:kind ->
  ?call:int ->
  t ->
  cat:string ->
  label:string ->
  site:string ->
  start_at:Time.t ->
  stop_at:Time.t ->
  unit
(** Records a span; a no-op while tracing is disabled.  When a capacity
    is set and already reached, the span is discarded and counted in
    {!dropped} — the earliest spans are retained, which is what a
    latency accounting of the first call(s) wants.  [kind] defaults to
    [Service] and [call] to {!no_call}, so pre-existing call sites need
    no change. *)

val new_call : t -> int
(** Allocates the next call id for the traced window; returns {!no_call}
    while tracing is disabled.  Ids restart from 0 at every {!clear}, so
    a traced window's calls are numbered [0 .. n-1] deterministically. *)

val register_frame : t -> Bytes.t -> call:int -> unit
(** Associates the physical identity of [frame] with [call], so the
    receive path (which sees the same buffer object) can recover the
    call id via {!frame_call}.  A no-op while tracing is disabled.  The
    registry is a fixed-size ring sized for the handful of in-flight
    frames a traced window produces; registering an already-present
    buffer overwrites its entry in place (newest registration wins), and
    registering one with [call = no_call] releases any stale entry — so
    a buffer recycled from a previous call can never alias that call's
    id.  When the ring is full the (approximately) oldest entry is
    evicted and counted in {!frame_evictions}. *)

val release_frame : t -> Bytes.t -> unit
(** Drops the registry entry for this buffer, if any: call when a frame
    buffer is returned to a freelist while tracing is on, so its next
    life starts unattributed.  A no-op while tracing is disabled. *)

val frame_call : t -> Bytes.t -> int
(** The call id registered for this frame object (physical equality), or
    {!no_call} if unknown or tracing is disabled. *)

val frame_evictions : t -> int
(** Frame-registry entries evicted because the ring was full — each one
    an in-flight call whose spans may since attribute to {!no_call}.
    Reset by {!clear}. *)

val clear : t -> unit
(** Drops all recorded spans, resets the {!dropped} counter, the call-id
    allocator, and the frame registry. *)

val spans : t -> span list
(** All recorded spans, in recording order. *)

val length : t -> int
(** Number of retained spans. *)

val dropped : t -> int
(** Spans discarded because the capacity bound was reached. *)

val duration : span -> Time.span
