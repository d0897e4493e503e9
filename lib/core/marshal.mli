(** Marshalling: copying arguments and results to and from packets.

    The data movement is real — values are encoded into the packet
    buffer bytes and decoded back — and the {e time} each copy costs the
    simulated CPU is the measured cost from Tables II–V, charged through
    the supplied CPU context.  Direction rules follow §2.2: [Value]
    arguments travel in the call packet only, [Var_in] in the call
    packet only, [Var_out] in the result packet only; VAR arrays cost a
    single copy (at the caller), Text.T costs a caller-side copy plus a
    server-side allocate-and-copy. *)

type value =
  | V_int of int32
  | V_bytes of Stdlib.Bytes.t
  | V_text of string option  (** [None] is Modula-2+'s NIL *)
  | V_bool of bool
  | V_int16 of int  (** range-checked to a signed 16-bit value *)
  | V_real of float
  | V_record of value list
  | V_seq of value list

val equal_value : value -> value -> bool

(** Which packet is being built/read, selecting the arguments that
    travel in it. *)
type direction = In_call_packet | In_result_packet

val travels : Idl.mode -> direction -> bool

(** {1 Encoding / decoding}

    Raise {!Rpc_error.Rpc} ([Marshal_failure]) on type mismatches or
    malformed data. *)

val encode_args :
  Wire.Bytebuf.Writer.t -> direction -> Idl.proc -> value list -> unit
(** Writes the travelling subset of [values] (which must supply {e all}
    the procedure's arguments, in order). *)

val decode_args :
  Wire.Bytebuf.Reader.t -> direction -> Idl.proc -> value list
(** Reads the travelling subset back; non-travelling positions are
    filled with zero/empty placeholders of the declared type. *)

val placeholder : Idl.ty -> value

val merge_outs : Idl.proc -> value list -> value list -> value list
(** [merge_outs p in_values outs] splices the implementation's [Var_out]
    results back into the full argument list (the form result-packet
    encoding wants).  Shared by every transport's server side.
    @raise Rpc_error.Rpc on a count mismatch. *)

val extract_outs : Idl.proc -> value list -> value list
(** The [Var_out] subset of a full result-argument list, in declaration
    order — what {!Runtime.call} returns to the caller. *)

(** {1 Cost model} *)

type side = Caller_side | Server_side

val cost :
  Hw.Timing.t -> side -> direction -> Idl.arg -> value -> Sim.Time.span
(** Marshalling time this argument costs on [side] while building or
    consuming a packet in [direction], per Tables II–V.  Zero for
    non-travelling arguments and for the uncharged end of single-copy
    VAR arguments. *)

val charge_args :
  Hw.Timing.t ->
  Hw.Cpu_set.ctx ->
  side ->
  direction ->
  Idl.proc ->
  value list ->
  unit
(** Sums {!cost} over the arguments and charges it, labelled
    "Marshalling", to the CPU context. *)
