(** The observability context threaded through the model: one metrics
    registry plus one event journal.

    A {!Workload.World} creates a single context and hands it to both
    machines and the link, so one snapshot sees the whole experiment;
    components created without one get a private context, which keeps
    every existing call site working and costs only the (cheap)
    unobserved updates. *)

type t = { metrics : Metrics.Registry.t; journal : Journal.t }

val create : unit -> t

val record : t -> at:Sim.Time.t -> site:string -> Journal.event -> unit
(** Shorthand for recording into the context's journal. *)
