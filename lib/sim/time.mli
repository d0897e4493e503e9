(** Virtual time for the discrete-event simulator.

    Time is an absolute instant measured in integer nanoseconds since the
    start of the simulation; {!span} is a signed duration, also in
    nanoseconds.  Nanosecond resolution is needed because several hardware
    rates in the Firefly model are sub-microsecond per byte (e.g. the
    10 Mbit/s Ethernet serializes one byte every 800 ns). *)

type t [@@immediate]
(** An absolute instant. *)

type span [@@immediate]
(** A signed duration. *)

val zero : t
(** The simulation start instant. *)

val zero_span : span
(** The zero-length duration. *)

(** {1 Constructing durations} *)

val ns : int -> span
(** [ns n] is a duration of [n] nanoseconds. *)

val us : int -> span
(** [us n] is a duration of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a duration of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a duration of [n] seconds. *)

val us_f : float -> span
(** [us_f x] is a duration of [x] microseconds, rounded to the nearest
    nanosecond.  Used by the calibrated cost models, which are linear fits
    with fractional per-byte slopes. *)

val sec_f : float -> span
(** [sec_f x] is a duration of [x] seconds, rounded to the nearest ns. *)

(** {1 Arithmetic} *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff later earlier] is the duration from [earlier] to [later]. *)

val span_add : span -> span -> span
val span_sub : span -> span -> span
val span_scale : float -> span -> span
val span_sum : span list -> span
val span_compare : span -> span -> int
val span_is_negative : span -> bool

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Conversions} *)

val to_ns : span -> int
val to_us : span -> float
val to_ms : span -> float
val to_sec : span -> float
val since_start_ns : t -> int
val since_start_us : t -> float
val since_start_sec : t -> float
val of_ns_since_start : int -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Prints an instant as seconds with microsecond precision. *)

val pp_span : Format.formatter -> span -> unit
(** Prints a duration using an adaptive unit (ns, us, ms or s). *)

val span_to_string : span -> string
