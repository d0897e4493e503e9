(** Building and parsing RPC frames — the real byte images.

    Normal layout (74..1514 bytes):
    Ethernet(14) · IPv4(20) · UDP(8) · RPC header(32) · payload(0..1440)

    With [Config.raw_ethernet] (§4.2.6), IP and UDP are omitted and the
    end-to-end checksum moves into the RPC header:
    Ethernet(14) · RPC header(32) · payload

    Checksums are computed and verified for real over the frame bytes;
    the CPU time they cost is charged by the caller of these functions
    (they are pure with respect to virtual time). *)

type endpoint = { mac : Net.Mac.t; ip : Net.Ipv4.Addr.t }

val build :
  Hw.Timing.t ->
  src:endpoint ->
  dst:endpoint ->
  hdr:Proto.header ->
  payload:Stdlib.Bytes.t ->
  payload_pos:int ->
  payload_len:int ->
  Stdlib.Bytes.t
(** Produces the complete frame.  [hdr.data_len] and [hdr.checksum] are
    overwritten with the correct values. *)

type parsed = {
  p_src : endpoint;
  p_hdr : Proto.header;
  p_payload : Wire.Bytebuf.View.t;
      (** a non-copying window into the frame; frames are immutable
          after delivery, so the view stays valid for as long as the
          receiver holds it *)
}

val parse : Hw.Timing.t -> Stdlib.Bytes.t -> (parsed, string) result
(** Full receive-side validation: header decode at every layer plus
    end-to-end checksum verification (unless checksums are disabled in
    the configuration, §4.2.4 — then corruption passes, which the
    fault-injection tests demonstrate).  Total: every malformed input
    yields [Error], never an exception — the wire fuzzer holds it to
    that. *)

val parse_view : Hw.Timing.t -> Wire.Bytebuf.View.t -> (parsed, string) result
(** [parse] over a non-copying window of a larger buffer (a frame still
    sitting in a receive ring, say).  [parse] is [parse_view] over the
    whole-buffer view; the fuzzer checks the two decode byte-identically
    — including identical [Error] strings — at every offset. *)

val frame_size : Hw.Timing.t -> payload_len:int -> int
