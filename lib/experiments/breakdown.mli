(** Tables VI–VIII — the paper's microsecond-by-microsecond accounting,
    regenerated from the {e trace of an actual simulated call} rather
    than echoed constants: {!Workload.Driver.run_traced} times one
    warmed-up Null() and one MaxResult(b) call, {!Obs.Attrib} attributes
    their spans to stages, and the tables read the stage means under
    the paper's step names ({!Obs.Attrib.table6_steps}). *)

type step = {
  step_label : string;
  paper_small_us : float;  (** 74-byte packet column *)
  paper_large_us : float option;  (** 1514-byte column, when different *)
  measured_small_us : float;
  measured_large_us : float;
}

val table6 : unit -> step list
(** The send+receive operation.  The 74-byte column is traced from the
    call packet of a Null() RPC, the 1514-byte column from the result
    packet of a MaxResult(b) RPC. *)

val table6_table : unit -> Report.Table.t

type runtime_step = { rt_label : string; rt_paper_us : float; rt_measured_us : float }

val table7 : unit -> runtime_step list
(** Stubs and RPC runtime for a call of Null(). *)

val table7_table : unit -> Report.Table.t

type accounting = {
  what : string;
  paper_calc_us : float;
  measured_calc_us : float;  (** sum of the traced components *)
  paper_elapsed_us : float;
  measured_elapsed_us : float;
      (** simulated single-call latency, plus the calling program's loop *)
}

val table8 : unit -> accounting list
(** Calculated vs measured latency for Null() and MaxResult(b), from
    one traced call of each: the calculation sums their Table VI and
    Table VII rows. *)

val table8_table : unit -> Report.Table.t
