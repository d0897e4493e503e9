(** Table I — Time for 10000 RPCs: Null() and MaxResult(b) with 1–8
    caller threads (latency, call rate, throughput). *)

type row = {
  threads : int;
  null_seconds : float;  (** seconds per 10000 calls of Null() *)
  null_rps : float;
  maxr_seconds : float;
  maxr_mbps : float;
  null_tail_ms : (float * float * float) option;
      (** Null() p50/p90/p99 latency in ms — measured only, populated
          when [metrics] was requested ([None] in [paper] rows) *)
}

val paper : row list

val run :
  ?calls:int ->
  ?metrics:bool ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  unit ->
  row list
(** [calls] (default 10000) is the per-configuration call budget; the
    seconds columns are normalized to 10000 either way.  [metrics]
    (default false) additionally computes the Null() latency tail.
    [transport] (default [`Auto], the two-machine ether) re-runs the
    whole table over another transport — [`Local] gives the paper's
    RPC-on-one-machine configuration. *)

val table :
  ?calls:int ->
  ?metrics:bool ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  unit ->
  Report.Table.t
(** Paper-vs-measured, one row per thread count; with [metrics], three
    extra p50/p90/p99 columns. *)

val cpu_utilization_note : ?calls:int -> unit -> string
(** The §2.1 observation: CPUs used at maximum throughput (paper: ~1.2
    on the caller, slightly less on the server). *)
