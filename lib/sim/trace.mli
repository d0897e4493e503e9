(** Span tracing for latency accounting.

    The paper's Tables VI and VII are a per-step breakdown of where the
    time of one RPC goes.  To regenerate them, model code records a
    {e span} — a labelled interval of virtual time — for every fast-path
    step it executes.  Each span carries a {!kind} (service time vs
    queueing delay) and a per-call id, so the attribution engine
    ({!Obs.Attrib}) can rebuild each call's causal timeline, account it
    to named stages, and check that the stages conserve the measured
    end-to-end latency; Tables VI–VIII are read from that account.

    Call ids cross the wire with the frame: the sender's id is handed to
    the controller along with the frame bytes, and every hop (controller
    queues, the link and its fault copies, switch and router forwarding)
    carries it beside the frame to the receiver, as the Firefly's
    stubs, driver and interrupt handler share one packet buffer (§3.2).

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

val frame_evictions : t -> int
(** Always [0]: call ids travel with their frames, so nothing is ever
    evicted.  Kept only because the host-cost benchmark still reads
    it. *)

val clear : t -> unit
(** Drops all recorded spans, resets the {!dropped} counter and the
    call-id allocator. *)

val spans : t -> span list
(** All recorded spans, in recording order. *)

val length : t -> int
(** Number of retained spans. *)

val dropped : t -> int
(** Spans discarded because the capacity bound was reached. *)

val duration : span -> Time.span
