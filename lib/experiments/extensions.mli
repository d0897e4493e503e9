(** Extension experiments beyond the paper's tables.

    The paper measured one caller machine against one server.  These
    experiments exercise regimes the paper only gestures at: several
    client {e machines} sharing the Ethernet and one server (§6 hints at
    file servers), and the §4.1 footnote's observation that the
    controller's saturated reception rate exceeds its transmission
    rate. *)

val multi_client_table : quick:bool -> Report.Table.t
(** 1–4 client machines, each running 2 caller threads of MaxResult(b)
    against the one server, at 800 calls per client, or 150 when
    [quick]. *)

val controller_saturation_table : unit -> Report.Table.t
(** Transmission: one DEQNA draining a long queue of 1514-byte frames.
    Reception: two senders saturating one receiver.  The paper's
    footnote puts the ratio at ~1.4. *)

val latency_tails_table : quick:bool -> Report.Table.t
(** Per-call Null() latency distribution as load grows, at 4000 calls
    per load point, or 600 when [quick] — queueing at the serialized
    CPU-0 work spreads the tail long before the mean moves.  The paper
    reports only aggregates; this is the modern latency-engineering view
    of the same machine. *)

val transports_table : unit -> Report.Table.t
(** The §3.1 bind-time transport choice, measured: the same trivial call
    through shared memory, the custom IP/UDP packet-exchange protocol,
    and a DECNet session.  The ordering (local ≪ custom ≪ general
    transport) is the design argument for the custom fast path.  Each
    row is {!Workload.Driver.measure_single_call} of the Test
    interface's Null() in a fresh world. *)
