(** Minimal IPv4: addresses and the 20-byte header, with a real header
    checksum.  No options, no fragmentation — the Firefly RPC transport
    never fragments at the IP layer (the RPC protocol does its own
    packetization), and the paper's packets all fit one Ethernet frame. *)

module Addr : sig
  type t

  val of_string : string -> t
  (** Parses dotted-quad.  @raise Invalid_argument on syntax errors. *)

  val of_int32 : int32 -> t
  val to_int32 : t -> int32
  val to_string : t -> string
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

type header = {
  src : Addr.t;
  dst : Addr.t;
  protocol : int;
  ttl : int;
  ident : int;
  payload_len : int;  (** bytes following the header *)
}

val protocol_udp : int
val header_size : int  (** 20 bytes *)

val encode : Wire.Bytebuf.Writer.t -> header -> unit
(** Writes the header including its computed checksum.
    @raise Invalid_argument if the total length or [ident] does not fit
    16 bits, or [ttl] or [protocol] 8 bits; nothing is written then. *)

val decode : Wire.Bytebuf.Reader.t -> (header, string) result
(** Verifies the header checksum (in place), then version and IHL;
    consumes 20 bytes. *)

val pseudo_header_sum : src:Addr.t -> dst:Addr.t -> protocol:int -> len:int -> int
(** Ones-complement sum of the UDP/TCP pseudo-header, for use as the
    [init] of a payload checksum: equal to [Wire.Checksum.sum] over its
    12 bytes, with [protocol] and [len] truncated to the 8 and 16 bits
    they occupy there.  Allocates nothing. *)
