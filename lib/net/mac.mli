(** 48-bit Ethernet (MAC) addresses. *)

type t

val broadcast : t

val of_station : int -> t
(** [of_station n] is a locally-administered unicast address derived
    from a small station number — how the simulator names DEQNA
    controllers.  [n] must be in [0, 0xffffff]. *)

val of_string : string -> t
(** Parses ["aa:bb:cc:dd:ee:ff"].  @raise Invalid_argument on syntax
    errors. *)

val to_string : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val is_broadcast : t -> bool
val pp : Format.formatter -> t -> unit

val size : int
(** Encoded size in bytes (6). *)

val get : Stdlib.Bytes.t -> int -> t
(** [get b pos] is the address in the 6 bytes of [b] at [pos] — how a
    link reads a frame's destination in place.
    @raise Invalid_argument if they are not inside [b]. *)

val set : Stdlib.Bytes.t -> int -> t -> unit
(** [set b pos m] writes [m] into the 6 bytes of [b] at [pos].
    @raise Invalid_argument if they are not inside [b]. *)

val read : Wire.Bytebuf.Reader.t -> t
(** Consumes 6 bytes. *)
