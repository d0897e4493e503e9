(** Extension experiments beyond the paper's tables.

    The paper measured one caller machine against one server.  These
    experiments exercise regimes the paper only gestures at: several
    client {e machines} sharing the Ethernet and one server (§6 hints at
    file servers), and the §4.1 footnote's observation that the
    controller's saturated reception rate exceeds its transmission
    rate. *)

type client_row = {
  client_machines : int;
  total_rps : float;
  total_mbps : float;
  server_busy_cpus : float;
  wire_utilization : float;
}

val multi_client : ?calls_per_client:int -> proc:Workload.Driver.proc -> unit -> client_row list
(** 1–4 client machines, each running 2 caller threads against the one
    server. *)

val multi_client_table : quick:bool -> Report.Table.t
(** MaxResult(b) at 800 calls per client, or 150 when [quick]. *)

type saturation = {
  tx_frames_per_sec : float;
  rx_frames_per_sec : float;
  rx_over_tx : float;  (** the paper's footnote says ~1.4 *)
}

val controller_saturation : unit -> saturation
(** Transmission: one DEQNA draining a long queue of 1514-byte frames.
    Reception: two senders saturating one receiver. *)

val controller_saturation_table : unit -> Report.Table.t

type tail_row = {
  tail_threads : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

val latency_tails : ?calls:int -> unit -> tail_row list
(** Per-call Null() latency distribution as load grows — queueing at
    the serialized CPU-0 work spreads the tail long before the mean
    moves.  The paper reports only aggregates; this is the modern
    latency-engineering view of the same machine. *)

val latency_tails_table : quick:bool -> Report.Table.t
(** At 4000 calls per load point, or 600 when [quick]. *)

type transport_row = { transport : string; null_latency_us : float }

val transport_comparison : unit -> transport_row list
(** The §3.1 bind-time transport choice, measured: the same trivial call
    through shared memory, the custom IP/UDP packet-exchange protocol,
    and a DECNet session.  The ordering (local ≪ custom ≪ general
    transport) is the design argument for the custom fast path.  Each
    row is {!Workload.Driver.measure_single_call} of the Test
    interface's Null() in a fresh world. *)

val transports_table : unit -> Report.Table.t
