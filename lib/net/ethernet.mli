(** Ethernet II framing (as put on the wire by the DEQNA model).

    The frame check sequence is not carried in the byte image — the
    paper's 74/1514-byte packet sizes exclude it too — but corruption is
    modelled: the link layer can flip bits {e after} the CRC check, which
    is exactly the DEQNA misbehaviour that forces the Firefly to keep
    software UDP checksums (paper §4.2.4). *)

type header = { dst : Mac.t; src : Mac.t; ethertype : int }

val ethertype_ipv4 : int

val ethertype_firefly_rpc : int
(** Private ethertype used by the "omit IP and UDP layers" variant
    (paper §4.2.6). *)

val header_size : int
(** 14 bytes. *)

val min_frame_size : int
(** 60 bytes excluding FCS; shorter frames are padded on the wire. *)

val max_frame_size : int
(** 1514 bytes excluding FCS — the maximum the paper's packets hit. *)

val encode : Wire.Bytebuf.Writer.t -> header -> unit
(** @raise Invalid_argument if [ethertype] does not fit 16 bits;
    nothing is written then. *)

val decode : Wire.Bytebuf.Reader.t -> (header, string) result
(** Consumes 14 bytes; the payload remains in the reader. *)
