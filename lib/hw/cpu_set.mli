(** The Firefly processor set.

    [n] identical CPUs share memory; CPU 0 is additionally attached to
    the QBus, so device interrupts and the interprocessor interrupt that
    prods the DEQNA can only run there (paper §3.1.3).  Threads may run
    anywhere.  Requests are served FIFO within a class; interrupt
    requests for CPU 0 pre-empt queued normal work (but not the current
    burst — the model is non-preemptive at burst granularity, and the
    fast path's bursts are tens of microseconds).

    Holding a CPU is represented by a {!ctx}; model code charges
    microseconds to it with {!charge}, which advances virtual time while
    the CPU stays busy and records a {!Sim.Trace} span for the
    latency-accounting experiments (Tables VI–VIII). *)

type t
type ctx

type affinity = Any | Cpu0
type priority = Interrupt | Thread

val create : obs:Obs.Ctx.t -> Sim.Engine.t -> site:string -> cpus:int -> t
(** The set's busy-CPU levels are registered in [obs] as [cpus.busy] /
    [cpus.cpu0_busy] under [site]. *)

val site : t -> string

val with_cpu :
  ?affinity:affinity -> ?priority:priority -> ?call:int -> t -> (ctx -> 'a) -> 'a
(** [with_cpu t f] acquires a CPU (waiting if necessary), runs [f] with
    the held context and releases the CPU afterwards, also on
    exception.  [Any] requests prefer the highest-numbered free CPU so
    CPU 0 stays available for interrupt work.  [Interrupt] priority is
    only meaningful with [affinity = Cpu0].  [call] (default
    {!Sim.Trace.no_call}) is charged for the wait and is the context's
    starting trace call ({!set_trace_call}). *)

val charge : ctx -> cat:string -> label:string -> Sim.Time.span -> unit
(** [charge ctx ~cat ~label d] keeps the CPU busy for [d] and records a
    service-time trace span.  Zero-length charges are skipped entirely.
    The span is attributed to the context's trace call
    ({!set_trace_call}) as it stood when the charge began. *)

val cpu_index : ctx -> int

val track : ctx -> string
(** The trace track name of the CPU currently held ("cpu0".."cpuN-1"). *)

val trace_call : ctx -> int
(** The call id charges on this context are attributed to;
    {!Sim.Trace.no_call} unless {!set_trace_call} was called. *)

val set_trace_call : ctx -> int -> unit
(** Attributes subsequent {!charge}s on this context to the given call
    id (from {!Sim.Trace.new_call}).  Reset it to {!Sim.Trace.no_call}
    when the call completes; pure bookkeeping, no engine effects. *)

val yield_cpu : ctx -> (unit -> 'a) -> 'a
(** [yield_cpu ctx f] releases the held CPU, runs [f] (typically a
    blocking wait), then re-acquires a CPU with the original affinity
    before returning — how a thread blocks without holding a processor.
    The context remains valid afterwards. *)

(** {1 Measurement} *)

val average_busy : t -> upto:Sim.Time.t -> float
(** Time-averaged number of busy CPUs — the paper's "about 1.2 CPUs
    being used on the caller machine" metric. *)

val utilization : t -> upto:Sim.Time.t -> float
val cpu0_utilization : t -> upto:Sim.Time.t -> float
val busy_now : t -> int
