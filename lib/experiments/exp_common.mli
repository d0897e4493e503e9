(** Shared plumbing for the experiment modules: world construction under
    a configuration, single-call latency measurement and throughput
    runs.  Every experiment builds a fresh world so runs are independent
    and deterministic. *)

val exerciser : cpus:int -> Hw.Config.t
(** The §5 measurement setup: hand-produced Exerciser stubs and the
    swapped-lines fix, with the given processor count. *)

val single_call :
  ?caller_config:Hw.Config.t ->
  ?server_config:Hw.Config.t ->
  proc:Workload.Driver.proc ->
  unit ->
  Sim.Time.span
(** Latency of one warmed-up call in a fresh world. *)

val throughput :
  ?caller_config:Hw.Config.t ->
  ?server_config:Hw.Config.t ->
  ?transport:[ `Auto | `Local | `Decnet ] ->
  threads:int ->
  calls:int ->
  proc:Workload.Driver.proc ->
  unit ->
  Workload.Driver.outcome

val seconds_per_10000 : Workload.Driver.outcome -> float
(** The paper's Table I/X unit: elapsed seconds normalized to 10000
    calls. *)
