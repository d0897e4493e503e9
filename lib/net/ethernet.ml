module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader

type header = { dst : Mac.t; src : Mac.t; ethertype : int }

let ethertype_ipv4 = 0x0800
let ethertype_firefly_rpc = 0x88b5 (* IEEE local experimental *)
let header_size = 14
let min_frame_size = 60
let max_frame_size = 1514

(* Fields at fixed offsets in one claimed window: destination (0),
   source (6), ethertype (12). *)
let encode w { dst; src; ethertype } =
  if ethertype < 0 || ethertype > 0xffff then invalid_arg "Bytebuf.Writer.u16: out of range";
  let o = W.claim w header_size in
  let b = W.unsafe_buffer w in
  Mac.set b o dst;
  Mac.set b (o + 6) src;
  Bytes.set_uint16_be b (o + 12) ethertype

let decode r =
  if R.remaining r < header_size then Error "ethernet: frame too short"
  else
    let o = R.claim r header_size in
    let b = R.unsafe_buffer r in
    Ok { dst = Mac.get b o; src = Mac.get b (o + 6); ethertype = Bytes.get_uint16_be b (o + 12) }
