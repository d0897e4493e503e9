(** The observability context threaded through the model: one metrics
    registry plus one event journal.

    A {!Workload.World} creates a single context and hands it to both
    machines and the link, so one snapshot sees the whole experiment.
    Every part of a machine takes the context it publishes to; a machine
    built without one gets a private context that all its parts share.
    An Ethernet link built without one publishes nothing (a switch's
    per-port links), and an IP router keeps its counts in a private
    context. *)

type t = { metrics : Metrics.Registry.t; journal : Journal.t }

val create : unit -> t

val record : t -> at:Sim.Time.t -> site:string -> Journal.event -> unit
(** Shorthand for recording into the context's journal. *)
