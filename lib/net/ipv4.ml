module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader

module Addr = struct
  type t = int32

  let of_int32 v = v
  let to_int32 v = v

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> v
        | _ -> invalid_arg ("Ipv4.Addr.of_string: bad octet " ^ x)
      in
      let a, b, c, d = (octet a, octet b, octet c, octet d) in
      Int32.of_int ((a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d)
    | _ -> invalid_arg ("Ipv4.Addr.of_string: " ^ s)

  let to_string t =
    let v = Int32.to_int t land 0xffffffff in
    Printf.sprintf "%d.%d.%d.%d" ((v lsr 24) land 0xff) ((v lsr 16) land 0xff)
      ((v lsr 8) land 0xff) (v land 0xff)

  let equal = Int32.equal
  let compare = Int32.compare
  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

type header = {
  src : Addr.t;
  dst : Addr.t;
  protocol : int;
  ttl : int;
  ident : int;
  payload_len : int;
}

let protocol_udp = 17
let header_size = 20

(* The header in one claimed window, each field at its RFC 791 offset:
   version/IHL 0, TOS 1, total length 2, ident 4, flags/fragment
   offset 6, TTL 8, protocol 9, checksum 10, source 12, destination
   16.  Fields are range-checked, in header order, before any byte is
   written. *)
let encode w h =
  let total_len = header_size + h.payload_len in
  if (total_len lor h.ident) land lnot 0xffff <> 0 then
    invalid_arg "Bytebuf.Writer.u16: out of range";
  if (h.ttl lor h.protocol) land lnot 0xff <> 0 then invalid_arg "Bytebuf.Writer.u8: out of range";
  let o = W.claim w header_size in
  let b = W.unsafe_buffer w in
  Bytes.set_uint16_be b o 0x4500 (* version 4, IHL 5; TOS 0 *);
  Bytes.set_uint16_be b (o + 2) total_len;
  Bytes.set_uint16_be b (o + 4) h.ident;
  Bytes.set_uint16_be b (o + 6) 0 (* flags/fragment offset *);
  Bytes.set_uint8 b (o + 8) h.ttl;
  Bytes.set_uint8 b (o + 9) h.protocol;
  Bytes.set_uint16_be b (o + 10) 0 (* checksum, summed as zero *);
  Bytes.set_int32_be b (o + 12) (Addr.to_int32 h.src);
  Bytes.set_int32_be b (o + 16) (Addr.to_int32 h.dst);
  Bytes.set_uint16_be b (o + 10) (Wire.Checksum.checksum b ~pos:o ~len:header_size)

let decode r =
  if R.remaining r < header_size then Error "ipv4: truncated header"
  else begin
    (* Verify the checksum over the header in place before parsing. *)
    let o = R.claim r header_size in
    let b = R.unsafe_buffer r in
    if not (Wire.Checksum.verify b ~pos:o ~len:header_size) then Error "ipv4: bad header checksum"
    else
      let vihl = Bytes.get_uint8 b o in
      if vihl <> 0x45 then Error (Printf.sprintf "ipv4: unsupported version/IHL 0x%02x" vihl)
      else begin
        let total_len = Bytes.get_uint16_be b (o + 2) in
        if Bytes.get_uint16_be b (o + 6) land 0x3fff <> 0 then
          Error "ipv4: fragmented packet unsupported"
        else if total_len < header_size then Error "ipv4: bad total length"
        else
          Ok
            {
              src = Addr.of_int32 (Bytes.get_int32_be b (o + 12));
              dst = Addr.of_int32 (Bytes.get_int32_be b (o + 16));
              protocol = Bytes.get_uint8 b (o + 9);
              ttl = Bytes.get_uint8 b (o + 8);
              ident = Bytes.get_uint16_be b (o + 4);
              payload_len = total_len - header_size;
            }
      end
  end

(* The pseudo-header's six 16-bit words (source, destination, zero and
   protocol, length), summed without a buffer.  A field wider than its
   8 or 16 bits is truncated to them, as writing it into the 12 bytes
   would; the sum is under 2^19, so two folds bring it to 16 bits. *)
let pseudo_header_sum ~src ~dst ~protocol ~len =
  let s = Int32.to_int (Addr.to_int32 src) and d = Int32.to_int (Addr.to_int32 dst) in
  let sum =
    ((s lsr 16) land 0xffff) + (s land 0xffff) + ((d lsr 16) land 0xffff) + (d land 0xffff)
    + (protocol land 0xff) + (len land 0xffff)
  in
  let sum = (sum land 0xffff) + (sum lsr 16) in
  (sum land 0xffff) + (sum lsr 16)
