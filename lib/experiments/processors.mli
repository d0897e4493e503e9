(** Tables X and XI — performance with fewer processors (§5).

    Measured, as the paper did, with the RPC Exerciser's hand-produced
    stubs and the "swapped lines" fix installed. *)

type latency_row = {
  caller_cpus : int;
  server_cpus : int;
  paper_sec_per_1000 : float;
  measured_sec_per_1000 : float;
}

val table10 : ?calls:int -> unit -> latency_row list
(** One thread calling Null(); seconds per 1000 calls. *)

val table10_table : quick:bool -> Report.Table.t
(** Table X at 1000 calls per point, or 200 when [quick]. *)

type throughput_row = {
  t_caller_cpus : int;
  t_server_cpus : int;
  t_threads : int;
  paper_mbps : float;
  measured_mbps : float;
}

val table11 : ?calls_per_thread:int -> unit -> throughput_row list
(** MaxResult(b) throughput, 1–5 caller threads, 1000 calls each. *)

val table11_table : quick:bool -> Report.Table.t
(** Table XI at 1000 calls per thread, or 100 when [quick]. *)
