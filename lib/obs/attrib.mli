(** Automatic latency-breakdown attribution.

    Consumes the span dump of a traced window plus the measured per-call
    windows and accounts every microsecond of each call's end-to-end
    latency to a named stage (service), to identified queueing delay, or
    to an explicit unattributed residual.  The accounting is exclusive —
    an exclusive timeline sweep attributes each instant of the window at
    most once, service winning over queueing — so per call

    {v service + queueing + residual = end-to-end latency v}

    holds exactly, and {!conservation_ok} demands the residual stay
    small.  Stage rows aggregate raw durations across calls for a
    Table VI-style presentation, and {!check} additionally flags drift
    from the paper's calibrated per-step constants. *)

type window = { w_call : int; w_start : Sim.Time.t; w_stop : Sim.Time.t }
(** The measured bounds of one call, as timed by the workload driver. *)

type column = Caller | Server | Wire

type stage = {
  st_label : string;
  st_kind : Sim.Trace.kind;
  st_column : column;  (** where the stage's first span ran *)
  st_caller_us : float;  (** mean per-call raw us spent on the caller *)
  st_server_us : float;
  st_wire_us : float;  (** wire time and other no-CPU latency *)
  st_mean_us : float;
  st_samples : float array;  (** per-call raw totals, sorted ascending *)
}

type call_account = {
  ca_call : int;
  ca_elapsed_us : float;
  ca_service_us : float;  (** exclusive: no instant counted twice *)
  ca_queue_us : float;
  ca_unattributed_us : float;  (** always [elapsed - service - queue] *)
}

type report = {
  r_stages : stage list;  (** in order of first causal appearance *)
  r_calls : call_account list;
  r_elapsed_us : float;  (** means over calls *)
  r_service_us : float;
  r_queue_us : float;
  r_unattributed_us : float;
  r_coverage : float;  (** mean attributed fraction of e2e latency *)
  r_min_coverage : float;  (** worst call's attributed fraction *)
}

val p50 : stage -> float
val p99 : stage -> float
(** Nearest-rank percentiles of a stage's per-call totals (0 when no
    call touched the stage). *)

val attribute : spans:Sim.Trace.span list -> windows:window list -> unit -> report
(** Builds the report.  A window's spans are those carrying its call
    id, in causal order (by start, an enclosing span before the work
    inside it); background spans belong to none.  Spans on sites other
    than ["caller"] and ["server"], and on the ["wire"] track, land in
    the wire column. *)

val conservation_ok : report -> bool
(** True when every call's attributed fraction (service + queueing)
    reaches 99% of its measured latency. *)

(** {1 Drift against the calibrated Table VI constants} *)

type table6_row = {
  t6_row : string;  (** the paper's step name *)
  t6_span : string;  (** the span label that measures the step *)
  t6_small_us : float;  (** cost per 74-byte packet *)
  t6_large_us : float;  (** cost per 1514-byte packet *)
}

val table6_steps : table6_row list
(** The paper's Table VI: its 14 rows, in its order.  The sender's and
    the receiver's UDP checksum are two rows naming one span. *)

type scenario = Null_call | Max_arg_call

val expected_us : scenario -> string -> float option
(** Expected per-call raw total of a span under the scenario's packet
    sizes: Null() exchanges two 74-byte packets; MaxArg(b) sends one
    1514-byte call packet and receives a 74-byte result.  A span
    accrues once per packet for each Table VI row that names it;
    [None] when no row does. *)

type drift = { d_label : string; d_expected_us : float; d_measured_us : float; d_frac : float }

val drift : report -> scenario:scenario -> drift list
(** Measured-vs-calibrated comparison for every Table VI stage present
    in the report. *)

val check : report -> scenario:scenario -> (unit, string list) result
(** The [--check] gate: conservation on every call, every calibrated
    step present in the trace, and no step drifting beyond both 25% and
    15 us from its calibrated per-call cost. *)

(** {1 Rendering} *)

val table : ?percentile:float -> report -> Report.Table.t
(** Stage rows plus service/queueing/residual/end-to-end summary rows;
    [percentile] appends an extra per-stage percentile column. *)

val to_csv : ?percentile:float -> report -> string
