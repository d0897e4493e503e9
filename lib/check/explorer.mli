(** The seeded fault-plan explorer.

    [explore] runs [seeds] independent simulations.  Seed [s] determines
    everything about run [s]: the fault plan ({!Fault_plan.generate}),
    the engine's random streams, and — with [`Random] tie-breaking — the
    order of same-instant events.  Each run drives a small mixed
    workload (minimum packets and multi-fragment bulk transfers) through
    the two-Firefly world with the plan installed and an
    {!Invariant.monitor} attached.

    When a run violates an invariant, the explorer {e shrinks} the fault
    plan — greedily deleting steps while the violation (same seed)
    persists — then re-runs the minimal plan with span tracing enabled
    so the failure comes with a {!Sim.Trace} log.  Re-running
    [run_plan] with the printed seed and plan reproduces the failure
    deterministically. *)

type bug =
  | No_bug
  | No_retransmit
      (** cripple the caller's retry machinery ([max_retries = 0]); a
          single dropped frame then fails the call, which the
          completion invariant reports under recoverable-only plans *)

type config = {
  threads : int;  (** concurrent caller threads *)
  calls_per_thread : int;
  payload : int;  (** GetData result bytes for the bulk calls *)
  bug : bug;
  tie_break : [ `Fifo | `Random ];
  max_steps : int;  (** fault-plan length bound *)
  uniproc : bool;  (** single-CPU machines ({!Hw.Config.uniprocessor}) *)
  streaming : bool;  (** §4.2.6 streamed result fragments, no per-fragment acks *)
  secured : bool;  (** §7 sealed calls under a shared key *)
}

val default_config : config
(** 3 threads × 4 calls, 4000-byte bulk payload, no bug, [`Random]
    tie-breaking, plans of up to 6 steps, multiprocessor, stop-and-wait,
    unsecured. *)

val validate : config -> (config, string) result
(** Rejects fewer than 1 thread, call per thread or plan step, and a
    payload outside [0 .. Workload.Test_interface.get_data_max]. *)

type outcome = {
  seed : int;
  plan : Fault_plan.t;
  violations : Invariant.violation list;
  calls_ok : int;
  calls_failed : int;  (** calls that raised a clean [Rpc_error] *)
  frames_carried : int;
  events_executed : int;
  spans : Sim.Trace.span list;  (** non-empty only when traced *)
}

val run_plan : ?trace:bool -> config -> seed:int -> plan:Fault_plan.t -> outcome
(** One simulation of the workload under the given plan.  Deterministic:
    the same [(config, seed, plan)] always yields the same outcome.
    [trace] (default false) enables span tracing for the whole run and
    returns the log in [spans].
    @raise Invalid_argument on a config {!validate} rejects. *)

val run_seed : config -> seed:int -> outcome
(** [run_plan] with the plan generated from [seed]. *)

val shrink : config -> outcome -> outcome
(** Greedy delta-debugging of a failing outcome's plan: repeatedly
    removes any single step whose removal preserves failure.  Returns
    the original outcome if it has no violations. *)

type summary = { seeds_run : int; failures : outcome list (** shrunk, traced *) }

val explore :
  ?progress:(int -> unit) -> ?jobs:int -> config -> base_seed:int -> seeds:int -> summary
(** Runs seeds [base_seed .. base_seed + seeds - 1]; [progress] is
    called with every seed, in order, before the runs start.  [jobs]
    (default 1) fans the per-seed investigations out over that many
    domains; seed assignment and failure order, and so the result, are
    the same for every [jobs]. *)

(** {1 The configuration matrix}

    A systematic sweep of the protocol's operating regimes: every
    combination of processor count, result streaming, call security and
    payload regime faces its own batch of seeded fault plans.  Payloads
    cover all-minimum-packet calls (0), single-fragment results (1000)
    and multi-fragment results (4000). *)

type cell = { m_uniproc : bool; m_streaming : bool; m_secured : bool; m_payload : int }

val matrix_cells : cell list
(** The 24 cells: 2 × 2 × 2 configurations × 3 payload regimes. *)

val cell_to_string : cell -> string

val explore_matrix :
  ?progress:(cell -> int -> unit) ->
  ?jobs:int ->
  config ->
  base_seed:int ->
  seeds_per_cell:int ->
  summary
(** [explore] over every cell of {!matrix_cells} (cell [i] uses seeds
    [base_seed + i * seeds_per_cell ...]), taking [config] as the
    template for everything the cell does not fix.  [summary.seeds_run]
    totals every run across the matrix.  The (cell, seed) grid runs
    on a pool of [jobs] domains; each simulation keeps its own engine
    and seed, so failures (and their shrunk plans and traces) are the
    same, in the same order, for every [jobs]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable failure report: seed, minimal plan, violations, a
    replay hint, and the tail of the trace log. *)
