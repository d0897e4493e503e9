module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module V = Wire.Bytebuf.View

type header = { src_port : int; dst_port : int; length : int; checksum : int }

let header_size = 8

(* The wire fuzzer's self-test hook (`firefly fuzz --canary`): when set,
   [decode] loses its upper length-sanity bound — the classic
   trust-the-header-length decoder bug — so downstream slicing can be
   driven out of bounds by a skewed length field.  The fuzzer must
   rediscover the resulting exception; never set outside that test. *)
let canary_skip_length_check = ref false

(* The header in one claimed window: source port (0), destination port
   (2), length (4) and checksum (6), the last two filled in once the
   payload is written. *)
let encode w ~src ~dst ~src_port ~dst_port ?(checksum = true) ~payload () =
  if (src_port lor dst_port) land lnot 0xffff <> 0 then
    invalid_arg "Bytebuf.Writer.u16: out of range";
  let start = W.length w in
  let o = W.claim w header_size in
  let b = W.unsafe_buffer w in
  Bytes.set_uint16_be b o src_port;
  Bytes.set_uint16_be b (o + 2) dst_port;
  Bytes.set_int32_be b (o + 4) 0l (* length and checksum placeholders *);
  payload w;
  let len = W.length w - start in
  if len > 0xffff then invalid_arg "Bytebuf.Writer.patch_u16: out of range";
  Bytes.set_uint16_be b (o + 4) len;
  if checksum then begin
    let init = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~len in
    let cks = Wire.Checksum.checksum ~init b ~pos:o ~len in
    (* An all-zero computed checksum is transmitted as 0xffff (RFC 768). *)
    Bytes.set_uint16_be b (o + 6) (if cks = 0 then 0xffff else cks)
  end

let decode r ~src ~dst =
  if R.remaining r < header_size then Error "udp: truncated header"
  else begin
    let datagram_len = R.remaining r in
    (* A view of the whole datagram: header fields, checksum and the
       returned payload window all alias the frame — no copies on the
       receive path. *)
    let raw = R.view r datagram_len in
    let b = V.buffer raw and o = V.offset raw in
    let length = Bytes.get_uint16_be b (o + 4) in
    let checksum = Bytes.get_uint16_be b (o + 6) in
    if length < header_size || (length > datagram_len && not !canary_skip_length_check) then
      Error "udp: bad length"
    else if
      checksum <> 0
      && not
           (let init =
              Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~len:length
            in
            Wire.Checksum.verify ~init b ~pos:o ~len:length)
    then Error "udp: bad checksum"
    else
      Ok
        ( { src_port = Bytes.get_uint16_be b o; dst_port = Bytes.get_uint16_be b (o + 2); length;
            checksum },
          V.sub raw ~pos:header_size ~len:(length - header_size) )
  end
