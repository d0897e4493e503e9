(** The fault-plan DSL of the simulation-testing harness.

    A fault plan is a small, finite program of hostile events compiled
    onto the {!Hw.Ether_link} fault injector and the engine: frame
    faults (drop / corrupt / duplicate / delay) fire in order, each
    after skipping a configurable number of frames matching its
    predicate; machine-restart events fire at absolute virtual times.

    Plans are generated from a seed, printed in a one-line-per-step
    replayable form, and shrunk by the {!Explorer} to a minimal failing
    reproducer.  A plan with no [Restart_server] step is {e recoverable
    only}: the packet-exchange protocol must mask every event in it, so
    any failed call under such a plan is an invariant violation. *)

type action =
  | Drop
  | Corrupt  (** one byte past the Ethernet header, post-CRC *)
  | Corrupt_payload
  | Duplicate
  | Delay_us of int  (** hold the frame for this many microseconds *)
  | Reorder  (** the frame is overtaken by the next one on the segment *)

type pred =
  | Any
  | Min_len of int  (** frames of at least this many bytes (data packets) *)
  | Max_len of int  (** frames under this many bytes (acks, minimum packets) *)

type step =
  | Frame_fault of { skip : int; pred : pred; action : action }
      (** Let [skip] frames matching [pred] pass, then apply [action] to
          the next matching frame.  Steps apply strictly in list order —
          a step only starts counting once its predecessor has fired. *)
  | Restart_server of { after_us : int; down_us : int }
      (** Power the server machine off [after_us] into the run and back
          on [down_us] later. *)
  | Crash_restart of { skip : int; pred : pred; down_us : int }
      (** Frame-triggered mid-call crash: let [skip] frames matching
          [pred] pass, deliver the next matching frame normally, then
          power the server off the instant the link releases it — so the
          crash lands {e inside} a packet exchange rather than at an
          arbitrary clock tick — and back on [down_us] later. *)

type t = { seed : int; steps : step list }

val generate : seed:int -> ?max_steps:int -> unit -> t
(** A seeded random plan of 1–[max_steps] (default 6) steps.  The same
    seed always yields the same plan. *)

val has_restart : t -> bool
(** [true] iff the plan contains a [Restart_server] or [Crash_restart]
    step — the only step kinds that justify a failed call. *)

val install : t -> Workload.World.t -> unit
(** Compiles the plan onto the world: sets the Ethernet fault injector
    for the frame faults and schedules the restarts on the engine.
    Replaces any previously installed injector. *)

val to_string : t -> string
(** Multi-line rendering: seed, then one indented line per step. *)
