(** §5 beyond the two tables: the uniprocessor lost-packet bug, and the
    streaming transfer strategy the paper speculates would help
    uniprocessor throughput. *)

type bug_row = {
  variant : string;
  mean_null_ms : float;
  retransmissions : int;
}

val uniproc_bug : ?calls:int -> unit -> bug_row list
(** Null() on uniprocessor caller and server, with and without the
    swapped-lines fix.  Without it, the race loses ~1 packet/second and
    each loss costs a ~600 ms retransmission wait; the paper observed
    calls averaging "around 20 milliseconds". *)

val uniproc_bug_table : quick:bool -> Report.Table.t
(** At 1200 calls per variant, or 60 when [quick]: loss events are rare
    and 600 ms each, so the full run needs the calls to stabilize. *)

type streaming_row = {
  strategy : string;
  mbps : float;
  wakeups_per_kb : float;
}

val streaming : ?calls:int -> unit -> streaming_row list
(** Server-to-caller bulk transfer on uniprocessor machines: 4 threads
    of single-packet MaxResult(b) calls (the paper's approach) vs one
    thread fetching 20 KB per call with stop-and-wait fragments vs the
    same with streamed (blast) fragments — Amoeba/V/Sprite style. *)

val streaming_table : quick:bool -> Report.Table.t
(** At 250 calls, or 60 when [quick]. *)
