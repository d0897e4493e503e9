(** The paper's remote "Test" interface (§2):

    {v
    PROCEDURE Null();
    PROCEDURE MaxResult(VAR OUT buffer: ARRAY OF CHAR);
    PROCEDURE MaxArg(VAR IN buffer: ARRAY OF CHAR);
    v}

    called with [VAR b: ARRAY [0..1439] OF CHAR] — 1440 bytes, the
    largest argument that fits a single packet. *)

val buffer_bytes : int
(** 1440. *)

val interface : Rpc.Idl.interface

val null_idx : int
val max_result_idx : int
val max_arg_idx : int

val get_data_idx : int
(** [GetData(len: INTEGER; VAR OUT buffer)] — a variable-size result
    procedure (up to {!get_data_max} bytes, i.e. multi-packet results)
    used by the streaming-extension and file-transfer scenarios; not in
    the paper's Test interface. *)

val get_data_max : int

val procedures : unit -> (Rpc.Marshal.value list -> Rpc.Marshal.value list) array
(** A fresh array of the four procedures, by index: [Null] does
    nothing; [MaxResult] returns {!max_arg_pattern}; [MaxArg] accepts
    only that pattern, and checking it allocates nothing; [GetData]
    returns the {!payload} of the requested length.  The results are
    shared, never fresh.  A bad argument raises
    [Rpc_error.Rpc (Marshal_failure _)]. *)

val impls : unit -> Rpc.Runtime.impl array
(** The simulated server's {!procedures}: each first burns the measured
    10 µs procedure body (Table VII). *)

val pattern : int -> Stdlib.Bytes.t
(** [pattern n] is the deterministic n-byte test payload: byte [i] is
    [(i * 7) land 0xff]. *)

val max_arg_pattern : Stdlib.Bytes.t
(** [pattern buffer_bytes], built once: MaxArg's argument and
    MaxResult's result.  Shared, so it must never be written. *)

val payload : int -> Stdlib.Bytes.t
(** [payload n] equals [pattern n]: GetData's result.  The last one
    built is kept and returned again while the same length is asked
    for, so it is shared and must never be written. *)
