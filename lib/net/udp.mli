(** UDP (RFC 768) header with the pseudo-header checksum.

    The Firefly RPC packet exchange protocol is layered on IP/UDP
    (paper §1, abstract); the UDP checksum is the software checksum the
    paper measures.  A zero checksum field means "not computed", which
    the "omit UDP checksums" configuration (§4.2.4) emits. *)

type header = { src_port : int; dst_port : int; length : int; checksum : int }

val header_size : int  (** 8 bytes *)

val encode :
  Wire.Bytebuf.Writer.t ->
  src:Ipv4.Addr.t ->
  dst:Ipv4.Addr.t ->
  src_port:int ->
  dst_port:int ->
  ?checksum:bool ->
  payload:(Wire.Bytebuf.Writer.t -> unit) ->
  unit ->
  unit
(** [encode w ~src ~dst ~src_port ~dst_port ~payload ()] writes the UDP
    header, runs [payload] to append the datagram body, then patches
    length and (unless [checksum:false]) the pseudo-header checksum.
    @raise Invalid_argument if a port does not fit 16 bits (before
    anything is written) or the datagram is longer than 65,535 bytes
    (after [payload] has run). *)

val decode :
  Wire.Bytebuf.Reader.t ->
  src:Ipv4.Addr.t ->
  dst:Ipv4.Addr.t ->
  (header * Wire.Bytebuf.View.t, string) result
(** Consumes the whole datagram, verifying length and — when the
    checksum field is nonzero — the pseudo-header checksum.  Returns the
    header and a non-copying view of the payload (aliasing the frame).
    Total: malformed datagrams yield [Error], never an exception. *)

val canary_skip_length_check : bool ref
(** Fuzzer self-test only ([firefly fuzz --canary]): while set, [decode]
    trusts the header's length field beyond the datagram's actual end —
    a planted decoder bug the fuzzer must find as an escaping exception.
    Default [false]; restore it after use. *)
