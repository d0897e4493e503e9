(** The packet-exchange protocol (§3.1–3.2) as two pure state machines.

    A call is named by its activity (one calling thread) and a sequence
    number.  The result implicitly acknowledges the call, and the
    activity's next call the result.  Multi-packet calls and results go
    stop-and-wait: every fragment but the last is acknowledged.  Silence
    makes the caller retransmit with [please_ack]; the server answers a
    duplicate of the call it is executing with [Busy], a duplicate of
    its last completed call with the retained result, and drops older
    ones.

    Fragment planning, header construction, fragment validation and
    reassembly, duplicate classification and the retransmission schedule
    live here and only here.  Nothing here reads a clock, charges a CPU
    or performs I/O: each input — a received frame, or "the deadline
    passed" — returns the {!output}s a {e driver} performs in order.
    {!Runtime} drives the core on the simulated machine,
    [Realnet.Udp_socket] over a kernel socket.

    A driver keeps one absolute deadline per waiting exchange and sets
    it at each {!Arm}.  A frame that makes no progress arms nothing, so
    it cannot postpone a retransmission. *)

type backoff = {
  multiplier : float;
      (** growth per silent period; must be [>= 1.], or {!Caller.expire}
          raises [Invalid_argument] *)
  max_interval : Sim.Time.span;  (** cap on the retransmission interval *)
}

type options = {
  retransmit_after : Sim.Time.span;  (** the first, and default, silent period *)
  max_retries : int;  (** give up after this many silent periods in a row *)
  backoff : backoff option;  (** [None]: a fixed interval *)
}

val fragment_count : max_payload:int -> int -> int
(** Frames for a payload of this length; an empty one still takes one. *)

type frame = { hdr : Proto.header; payload : Wire.Bytebuf.View.t }
(** A header and its payload slice; [Frames.build] fills in [data_len]
    and [checksum]. *)

(** What a driver accounts for: journal, counters, packet buffers. *)
type note =
  | Retransmit of int  (** the caller resends a call fragment after silence (seq) *)
  | Ack of int  (** a fragment acknowledgement goes out (seq) *)
  | Duplicate of int  (** the server resends the retained result of seq *)
  | Busy of int  (** a duplicate of the call still executing (seq) *)
  | Released of int  (** an activity's retained result of this many frames was dropped *)
  | Transmit of { frames : int; acked : bool }
      (** a result transfer begins; [acked]: stop-and-wait, acks will come *)

type 'peer output =
  | Send of 'peer * frame
  | Arm of Sim.Time.span  (** set the deadline to now + the interval *)
  | Note of note
  | Deliver of { payload : Wire.Bytebuf.View.t; secured : bool }  (** the caller's result *)
  | Execute of frame
      (** the whole call, under its first fragment's header: run it and
          {!Server.reply} *)
  | Retain  (** the result transfer is over; its frames are retained *)
  | Give_up of string  (** the exchange ended without a result *)
(** [Deliver], [Execute], [Retain] and [Give_up] end a waiting phase. *)

(** Fragment reassembly.  The first accepted fragment fixes the count;
    later ones are accepted only with an index in range and the same
    count.  A duplicate is accepted but stored once. *)
module Collector : sig
  type t

  val create : unit -> t
  val offer : t -> Proto.header -> Wire.Bytebuf.View.t -> bool

  val payload : t -> Wire.Bytebuf.View.t option
  (** Once every fragment is in: the only one as is, or all of them
      concatenated. *)
end

(** The calling half. *)
module Caller : sig
  type 'peer t

  val start :
    options ->
    max_payload:int ->
    peer:'peer ->
    activity:Proto.Activity.t ->
    seq:int ->
    server_space:int ->
    interface_id:int32 ->
    proc_idx:int ->
    secured:bool ->
    Stdlib.Bytes.t ->
    'peer t * 'peer output list
  (** Sends fragment 0 of the (possibly sealed) marshalled call and arms. *)

  val input : 'peer t -> frame -> 'peer output list
  (** An ack of the fragment in flight, a [Busy] or an acceptable result
      fragment is progress: the retry count and interval reset and the
      deadline is re-armed.  Anything else produces nothing. *)

  val expire : 'peer t -> 'peer output list
  (** Retransmit the fragment in flight with [please_ack] under the next
      interval, or give up after [max_retries] silent periods. *)
end

(** The serving half: a record per calling activity (last completed
    sequence number, the call in progress, the retained result) and a
    {!transfer} per call being collected, executed and answered. *)
module Server : sig
  type 'peer t
  type 'peer transfer

  val create : options -> max_payload:int -> streaming:bool -> 'peer t
  (** [streaming]: multi-frame results go back-to-back with
      [no_frag_ack] instead of stop-and-wait. *)

  val call : 'peer t -> from:'peer -> frame -> 'peer transfer option * 'peer output list
  (** A call frame no transfer listens for: a duplicate of the last
      completed call gets the retained result, one of the call in
      progress a [Busy] (sent if it asked for an ack); anything older
      than the call last started, or a stray later fragment, is dropped;
      fragment 0 of a new call starts a transfer, releasing the previous
      result. *)

  val receive : 'peer t -> from:'peer -> frame -> 'peer transfer option * 'peer output list
  (** Any frame, for a driver with one receive loop: to the transfer
      collecting or sending for its activity, else {!call}. *)

  val input : 'peer transfer -> frame -> 'peer output list
  (** Collecting: a call fragment, acknowledged unless it is the last.
      Sending: an ack, or a retransmitted call asking for one. *)

  val expire : 'peer transfer -> 'peer output list
  (** Collecting: wait again, or give up after [max_retries].  Sending:
      resend the unacknowledged fragment, or after [max_retries] abandon
      the transfer — which still retains the result, so the caller's
      next retransmission receives it instead of a second execution. *)

  val reply : 'peer transfer -> (Stdlib.Bytes.t * bool, string) result -> 'peer output list
  (** The outcome, [Ok (payload, sealed)] or [Error message] (sent as an
      [Error_reply]); gives up if a newer call superseded this one. *)

  val abort : 'peer transfer -> unit
  (** The driver lost the transfer (an exception): stop working on it. *)

  val reclaim : 'peer transfer -> unit -> int
  (** [reclaim tr ()], the retain GC: drops the result [tr] retained
      unless the activity moved on or is working; returns the frames
      released.  The closure keeps only the activity's record alive. *)

  val activities : 'peer t -> int
end
