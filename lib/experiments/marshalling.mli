(** Tables II–V — marshalling times.

    Reproduced the way Birrell measured them (§2.2): local (same-
    machine) RPC with the standard generated stubs, reporting the
    incremental elapsed time of a call with the given argument over a
    call of Null().  Local transport time is independent of packet
    size, so the increment isolates the stubs' marshalling work. *)

type row = {
  label : string;
  paper_us : float;
  measured_us : float;
}

type sweep
(** Every scenario's warmed-up local-call latency, from one world. *)

val measure : unit -> sweep
(** Runs the measurement sweep. *)

val increment : sweep -> string -> float
(** Measured overhead (µs) of the named scenario over [Null()].
    @raise Invalid_argument naming the missing scenario (and listing the
    measured ones) if it was never measured — a sweep/table mismatch. *)

val table2 : sweep -> row list  (** by-value 4-byte integers: 1, 2, 4 *)

val table3 : sweep -> row list  (** fixed-length array VAR OUT: 4, 400 bytes *)

val table4 : sweep -> row list  (** variable-length array VAR OUT: 1, 1440 bytes *)

val table5 : sweep -> row list  (** Text.T: NIL, 1, 128 bytes *)

val tables : unit -> Report.Table.t list
(** Tables II–V from one sweep. *)
