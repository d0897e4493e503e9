module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader

module Activity = struct
  type t = { caller_ip : Net.Ipv4.Addr.t; caller_space : int; thread : int }

  let equal a b =
    Net.Ipv4.Addr.equal a.caller_ip b.caller_ip
    && a.caller_space = b.caller_space && a.thread = b.thread

  let hash t = Hashtbl.hash (Net.Ipv4.Addr.to_int32 t.caller_ip, t.caller_space, t.thread)

  let pp fmt t =
    Format.fprintf fmt "%a/%d.%d" Net.Ipv4.Addr.pp t.caller_ip t.caller_space t.thread
end

type ptype = Call | Result | Ack | Busy | Error_reply

type header = {
  ptype : ptype;
  please_ack : bool;
  no_frag_ack : bool;
  secured : bool;
  activity : Activity.t;
  seq : int;
  server_space : int;
  interface_id : int32;
  proc_idx : int;
  frag_idx : int;
  frag_count : int;
  data_len : int;
  checksum : int;
}

let size = 32
let magic = 0x52
let version = 1

let ptype_code = function
  | Call -> 1
  | Result -> 2
  | Ack -> 3
  | Busy -> 4
  | Error_reply -> 5

let ptype_of_code = function
  | 1 -> Some Call
  | 2 -> Some Result
  | 3 -> Some Ack
  | 4 -> Some Busy
  | 5 -> Some Error_reply
  | _ -> None

let flag_please_ack = 0x01
let flag_no_frag_ack = 0x02
let flag_secured = 0x04

(* The header in one claimed window, each field at a fixed offset:
   magic 0, version 1, type 2, flags 3, caller IP 4, caller space 8,
   thread 10, seq 12, server space 16, interface 18, procedure 22,
   fragment index 24, fragment count 26, data length 28, checksum 30.
   The 16-bit fields are range-checked before any byte is written. *)
let encode w h =
  let a = h.activity in
  if
    (a.Activity.caller_space lor a.Activity.thread lor h.server_space lor h.proc_idx lor h.frag_idx
   lor h.frag_count lor h.data_len lor h.checksum)
    land lnot 0xffff
    <> 0
  then invalid_arg "Bytebuf.Writer.u16: out of range";
  let o = W.claim w size in
  let b = W.unsafe_buffer w in
  Bytes.set_uint8 b o magic;
  Bytes.set_uint8 b (o + 1) version;
  Bytes.set_uint8 b (o + 2) (ptype_code h.ptype);
  Bytes.set_uint8 b (o + 3)
    ((if h.please_ack then flag_please_ack else 0)
    lor (if h.no_frag_ack then flag_no_frag_ack else 0)
    lor if h.secured then flag_secured else 0);
  Bytes.set_int32_be b (o + 4) (Net.Ipv4.Addr.to_int32 a.Activity.caller_ip);
  Bytes.set_uint16_be b (o + 8) a.Activity.caller_space;
  Bytes.set_uint16_be b (o + 10) a.Activity.thread;
  Bytes.set_int32_be b (o + 12) (Int32.of_int h.seq);
  Bytes.set_uint16_be b (o + 16) h.server_space;
  Bytes.set_int32_be b (o + 18) h.interface_id;
  Bytes.set_uint16_be b (o + 22) h.proc_idx;
  Bytes.set_uint16_be b (o + 24) h.frag_idx;
  Bytes.set_uint16_be b (o + 26) h.frag_count;
  Bytes.set_uint16_be b (o + 28) h.data_len;
  Bytes.set_uint16_be b (o + 30) h.checksum

let decode r =
  if R.remaining r < size then Error "rpc: truncated header"
  else begin
    let o = R.claim r size in
    let b = R.unsafe_buffer r in
    let pt = Bytes.get_uint8 b (o + 2) in
    let frag_idx = Bytes.get_uint16_be b (o + 24) in
    let frag_count = Bytes.get_uint16_be b (o + 26) in
    if Bytes.get_uint8 b o <> magic then Error "rpc: bad magic"
    else if Bytes.get_uint8 b (o + 1) <> version then Error "rpc: bad version"
    else
      match ptype_of_code pt with
      | None -> Error (Printf.sprintf "rpc: unknown packet type %d" pt)
      | Some ptype ->
        if frag_count = 0 || frag_idx >= frag_count then Error "rpc: bad fragment numbering"
        else
          let flags = Bytes.get_uint8 b (o + 3) in
          Ok
            {
              ptype;
              please_ack = flags land flag_please_ack <> 0;
              no_frag_ack = flags land flag_no_frag_ack <> 0;
              secured = flags land flag_secured <> 0;
              activity =
                {
                  Activity.caller_ip = Net.Ipv4.Addr.of_int32 (Bytes.get_int32_be b (o + 4));
                  caller_space = Bytes.get_uint16_be b (o + 8);
                  thread = Bytes.get_uint16_be b (o + 10);
                };
              seq = Int32.to_int (Bytes.get_int32_be b (o + 12)) land 0xffffffff;
              server_space = Bytes.get_uint16_be b (o + 16);
              interface_id = Bytes.get_int32_be b (o + 18);
              proc_idx = Bytes.get_uint16_be b (o + 22);
              frag_idx;
              frag_count;
              data_len = Bytes.get_uint16_be b (o + 28);
              checksum = Bytes.get_uint16_be b (o + 30);
            }
  end

let pp fmt h =
  let pt =
    match h.ptype with
    | Call -> "call"
    | Result -> "result"
    | Ack -> "ack"
    | Busy -> "busy"
    | Error_reply -> "error"
  in
  Format.fprintf fmt "%s %a#%d if=%ld proc=%d frag=%d/%d len=%d%s" pt Activity.pp h.activity
    h.seq h.interface_id h.proc_idx h.frag_idx h.frag_count h.data_len
    (if h.please_ack then " please-ack" else "")
