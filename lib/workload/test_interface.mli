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

val impls : Hw.Timing.t -> Rpc.Runtime.impl array
(** Server implementations: [Null] burns the measured 10 µs procedure
    body (Table VII); [MaxResult] fills the result buffer with a
    recognizable pattern; [MaxArg] checks the received pattern. *)

val pattern : int -> Stdlib.Bytes.t
(** [pattern n] is the deterministic n-byte test payload: byte [i] is
    [(i * 7) land 0xff]. *)
