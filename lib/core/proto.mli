(** The RPC packet-exchange protocol header (32 bytes on the wire).

    The protocol follows Birrell and Nelson's Cedar RPC design (paper
    §3.1): calls are identified by an {e activity} (one calling thread)
    and a monotonically increasing sequence number; a result implicitly
    acknowledges its call, and the activity's next call implicitly
    acknowledges the previous result.  Explicit [Ack]s are only used for
    the fragments of multi-packet calls/results and when a retransmitted
    call asks for one ([please_ack]); [Busy] tells a retransmitting
    caller that the server is still working.

    32 bytes is chosen so that Ethernet (14) + IP (20) + UDP (8) + RPC
    header make the paper's 74-byte minimum packet. *)

(** One calling thread's identity, globally unique. *)
module Activity : sig
  type t = { caller_ip : Net.Ipv4.Addr.t; caller_space : int; thread : int }

  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
end

type ptype =
  | Call
  | Result
  | Ack  (** acknowledges the fragment named by [seq]/[frag_idx] *)
  | Busy  (** server has the call and is still working *)
  | Error_reply  (** server-side dispatch failure, payload = message *)

type header = {
  ptype : ptype;
  please_ack : bool;
      (** sender is retransmitting and wants an explicit ack *)
  no_frag_ack : bool;
      (** streamed transfer (the §5 Amoeba/V/Sprite-style extension):
          fragments are blasted back-to-back and the receiver must not
          acknowledge each one *)
  secured : bool;
      (** payload sealed under a binding key (the §7 authenticated-call
          hooks, see {!Secure}) *)
  activity : Activity.t;
  seq : int;  (** call sequence number within the activity *)
  server_space : int;
  interface_id : int32;
  proc_idx : int;
  frag_idx : int;
  frag_count : int;
  data_len : int;  (** payload bytes following the header *)
  checksum : int;
      (** end-to-end checksum in raw-Ethernet mode (§4.2.6); 0 when
          UDP provides the checksum *)
}

val size : int
(** 32. *)

val magic : int

val encode : Wire.Bytebuf.Writer.t -> header -> unit
(** Writes the 32 bytes.  [seq] is stored modulo 2{^32}.
    @raise Invalid_argument if a 16-bit field (caller space, thread,
    server space, procedure, fragment index and count, data length,
    checksum) is out of range; nothing is written then. *)

val decode : Wire.Bytebuf.Reader.t -> (header, string) result
(** Consumes 32 bytes when at least that many remain, and checks
    magic, version, packet type and fragment numbering, in that order. *)

val pp : Format.formatter -> header -> unit
