(** Measured-vs-calibrated cross-validation over the real socket
    backend (the [firefly call --transport socket] report).

    Runs whole RPCs through {!Udp_socket} on the loopback interface and
    micro-times the shared encoders ({!Rpc.Marshal},
    {!Wire.Checksum}, {!Rpc.Frames}) in wall-clock time, printing each
    beside the simulator's calibrated MicroVAX II constant for the same
    operation.  Validates that the calibrated model prices work the
    production code really performs — not that a modern host matches
    1987 latencies. *)

val test_impls : unit -> Udp_socket.impl array
(** A fresh array of the paper's Test interface procedures,
    {!Workload.Test_interface.procedures}, without the simulated body
    charge — shared with the transport conformance suite. *)

val table :
  ?calls:int ->
  sim_null_us:float ->
  sim_maxarg_us:float ->
  unit ->
  (Report.Table.t, string) result
(** [calls] (default 200) loopback RPCs per round-trip row.
    [sim_null_us]/[sim_maxarg_us] are the simulated single-call
    latencies to print beside the measured round trips (computed by the
    caller, which owns a simulated world).  [Error] with a reason when
    loopback sockets are unavailable — callers should report and skip. *)
