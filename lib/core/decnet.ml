module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing
module Machine = Nub.Machine
module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader

let ethertype = 0x6003

(* Representative NSP software costs on a ~1 MIPS processor (the paper
   quantifies only the custom transport; these are deliberately heavier
   — the general-purpose stack the custom fast path was built to
   beat). *)
let seg_send_us = 180.
let seg_recv_us = 230.
let ack_recv_us = 60.
let handshake_us = 300.

let default_retransmit = Time.ms 150
let default_retries = 10
let max_seg_payload = 1400

(* Segment header, 14 bytes after the Ethernet header:
   type(1) src_conn(2) dst_conn(2) seq(2) ack(2) flags(1) len(2) cks(2) *)
type seg_type = Connect_init | Connect_confirm | Data | Data_ack | Disconnect

let seg_code = function
  | Connect_init -> 1
  | Connect_confirm -> 2
  | Data -> 3
  | Data_ack -> 4
  | Disconnect -> 5

let seg_of_code = function
  | 1 -> Some Connect_init
  | 2 -> Some Connect_confirm
  | 3 -> Some Data
  | 4 -> Some Data_ack
  | 5 -> Some Disconnect
  | _ -> None

let header_size = 14
let flag_more = 0x01

type segment = {
  s_type : seg_type;
  src_conn : int;
  dst_conn : int;
  seq : int;
  ack : int;
  more : bool;
  payload : Bytes.t;
}

type conn_state = Connecting | Established | Closed

type conn = {
  ep : endpoint;
  local_id : int;
  mutable remote_id : int;
  peer : Net.Mac.t;
  mutable state : conn_state;
  (* sender: stop-and-wait *)
  send_lock : Sim.Resource.t;
  mutable send_seq : int;
  mutable awaiting_ack : int option;
  ack_waiter : unit Nub.Waiter.t;
  retransmit_after : Time.span;
  max_retries : int;
  (* receiver *)
  mutable recv_seq : int;
  reassembly : Buffer.t;
  messages : Bytes.t Queue.t;
  msg_waiter : unit Nub.Waiter.t;
}

and endpoint = {
  node : Node.t;
  mach : Machine.t;
  mutable next_id : int;
  conns : (int, conn) Hashtbl.t;
  (* server-side dedup of retransmitted Connect_inits *)
  by_remote : (string * int, conn) Hashtbl.t;
  listeners : (int, conn -> unit) Hashtbl.t;
  mutable c_accepted : int;
  mutable c_sent : int;
  mutable c_retrans : int;
  mutable c_cks : int;
}

let eng ep = Machine.engine ep.mach
let timing ep = Machine.timing ep.mach
let sw ep us = Time.us_f (us /. (Timing.config (timing ep)).Hw.Config.cpu_speedup)
let charge ep ctx ~label us = Cpu_set.charge ctx ~cat:"decnet" ~label (sw ep us)

(* {1 Framing} *)

let build_frame ep ~dst seg =
  let total = Net.Ethernet.header_size + header_size + Bytes.length seg.payload in
  let w = W.create total in
  Net.Ethernet.encode w { Net.Ethernet.dst; src = Machine.mac ep.mach; ethertype };
  let start = W.length w in
  W.u8 w (seg_code seg.s_type);
  W.u16 w seg.src_conn;
  W.u16 w seg.dst_conn;
  W.u16 w seg.seq;
  W.u16 w seg.ack;
  W.u8 w (if seg.more then flag_more else 0);
  W.u16 w (Bytes.length seg.payload);
  W.u16 w 0 (* checksum placeholder *);
  W.bytes w seg.payload;
  let cks =
    Wire.Checksum.checksum (W.unsafe_buffer w)
      ~pos:(W.absolute_pos w start)
      ~len:(header_size + Bytes.length seg.payload)
  in
  W.patch_u16 w ~pos:(start + 12) (if cks = 0 then 0xffff else cks);
  W.to_bytes w

let parse_frame frame =
  let r = R.of_bytes frame in
  match Net.Ethernet.decode r with
  | Error e -> Error e
  | Ok eth ->
    if R.remaining r < header_size then Error "decnet: truncated segment"
    else begin
      let body_pos = Net.Ethernet.header_size in
      let body_len = Bytes.length frame - body_pos in
      if not (Wire.Checksum.verify frame ~pos:body_pos ~len:body_len) then
        Error "decnet: bad checksum"
      else begin
        let code = R.u8 r in
        let src_conn = R.u16 r in
        let dst_conn = R.u16 r in
        let seq = R.u16 r in
        let ack = R.u16 r in
        let flags = R.u8 r in
        let len = R.u16 r in
        R.skip r 2 (* checksum *);
        if len > R.remaining r then Error "decnet: bad length"
        else
          match seg_of_code code with
          | None -> Error "decnet: unknown segment type"
          | Some s_type ->
            Ok
              ( {
                  s_type;
                  src_conn;
                  dst_conn;
                  seq;
                  ack;
                  more = flags land flag_more <> 0;
                  payload = R.bytes r len;
                },
                eth.Net.Ethernet.src )
      end
    end

(* {1 Sending} *)

let transmit ep ctx ~dst seg =
  ep.c_sent <- ep.c_sent + 1;
  let frame = build_frame ep ~dst seg in
  Cpu_set.charge ctx ~cat:"decnet" ~label:"Software checksum"
    (Timing.udp_checksum (timing ep) ~bytes:(Bytes.length frame));
  Nub.Driver.send (Machine.driver ep.mach) ~ctx frame

let fail msg = Rpc_error.fail (Rpc_error.Call_failed msg)

let blank_seg ~s_type ~src_conn ~dst_conn =
  { s_type; src_conn; dst_conn; seq = 0; ack = 0; more = false; payload = Bytes.empty }

(* Stop-and-wait, for a data segment and for a connect alike: send
   [seg], then resend it after each [retransmit_after] that passes
   without a wakeup on the ack waiter, at most [max_retries] times, and
   close the connection with [give_up] after that.  [settled ()] is
   true once the wait is over and raises once it can no longer end
   well. *)
let send_reliably conn ctx seg ~settled ~give_up =
  let ep = conn.ep in
  transmit ep ctx ~dst:conn.peer seg;
  let rec wait resends =
    if not (settled ()) then
      match Nub.Waiter.wait_timeout conn.ack_waiter ctx ~timeout:conn.retransmit_after with
      | Some () -> wait resends
      | None ->
        if resends >= conn.max_retries then begin
          conn.state <- Closed;
          fail give_up
        end;
        ep.c_retrans <- ep.c_retrans + 1;
        transmit ep ctx ~dst:conn.peer seg;
        wait (resends + 1)
  in
  wait 0

let send_message conn ctx message =
  let ep = conn.ep in
  if conn.state = Closed then fail "decnet: connection closed";
  (* A data segment is settled once the cumulative ack covers it. *)
  let acked () =
    if conn.state = Closed then fail "decnet: connection closed";
    conn.awaiting_ack = None
  in
  Cpu_set.yield_cpu ctx (fun () -> Sim.Resource.acquire conn.send_lock);
  Fun.protect
    ~finally:(fun () -> Sim.Resource.release conn.send_lock)
    (fun () ->
      let len = Bytes.length message in
      let nsegs = max 1 ((len + max_seg_payload - 1) / max_seg_payload) in
      for i = 0 to nsegs - 1 do
        let pos = i * max_seg_payload in
        let slice_len = if len = 0 then 0 else min max_seg_payload (len - pos) in
        charge ep ctx ~label:"Segment send processing" seg_send_us;
        conn.send_seq <- conn.send_seq + 1;
        conn.awaiting_ack <- Some conn.send_seq;
        send_reliably conn ctx ~settled:acked ~give_up:"decnet: retransmission limit reached"
          {
            s_type = Data;
            src_conn = conn.local_id;
            dst_conn = conn.remote_id;
            seq = conn.send_seq;
            ack = conn.recv_seq;
            more = i < nsegs - 1;
            payload = Bytes.sub message pos slice_len;
          }
      done)

let recv_message conn ctx ~timeout =
  let deadline = Time.add (Engine.now (eng conn.ep)) timeout in
  let rec loop () =
    match Queue.take_opt conn.messages with
    | Some m -> Some m
    | None ->
      if conn.state = Closed then None
      else begin
        let now = Engine.now (eng conn.ep) in
        if Time.(deadline <= now) then None
        else begin
          ignore (Nub.Waiter.wait_timeout conn.msg_waiter ctx ~timeout:(Time.diff deadline now));
          loop ()
        end
      end
  in
  loop ()

let close conn ctx =
  if conn.state <> Closed then begin
    conn.state <- Closed;
    transmit conn.ep ctx ~dst:conn.peer
      (blank_seg ~s_type:Disconnect ~src_conn:conn.local_id ~dst_conn:conn.remote_id);
    Nub.Waiter.notify conn.msg_waiter ~waker:ctx ();
    Nub.Waiter.notify conn.ack_waiter ~waker:ctx ()
  end

let is_open conn = conn.state <> Closed

(* {1 Connection objects} *)

let make_conn ep ~peer ~retransmit_after ~max_retries ~state =
  let id = ep.next_id in
  ep.next_id <- ep.next_id + 1;
  let conn =
    {
      ep;
      local_id = id;
      remote_id = 0;
      peer;
      state;
      send_lock = Sim.Resource.create (eng ep);
      send_seq = 0;
      awaiting_ack = None;
      ack_waiter = Machine.new_waiter ep.mach;
      retransmit_after;
      max_retries;
      recv_seq = 0;
      reassembly = Buffer.create 256;
      messages = Queue.create ();
      msg_waiter = Machine.new_waiter ep.mach;
    }
  in
  Hashtbl.replace ep.conns id conn;
  conn

(* {1 The interrupt-time segment handler} *)

let handle_segment ep ctx (seg : segment) ~src_mac =
  let find_conn () = Hashtbl.find_opt ep.conns seg.dst_conn in
  match seg.s_type with
  | Connect_init -> (
    charge ep ctx ~label:"Connection handshake" handshake_us;
    let space = if Bytes.length seg.payload >= 2 then Bytes.get_uint16_be seg.payload 0 else -1 in
    let key = (Net.Mac.to_string src_mac, seg.src_conn) in
    match Hashtbl.find_opt ep.by_remote key with
    | Some conn ->
      (* retransmitted init: re-confirm *)
      transmit ep ctx ~dst:src_mac
        (blank_seg ~s_type:Connect_confirm ~src_conn:conn.local_id ~dst_conn:seg.src_conn)
    | None -> (
      match Hashtbl.find_opt ep.listeners space with
      | None -> () (* no listener: ignore; initiator times out *)
      | Some accept ->
        let conn =
          make_conn ep ~peer:src_mac ~retransmit_after:default_retransmit
            ~max_retries:default_retries ~state:Established
        in
        conn.remote_id <- seg.src_conn;
        Hashtbl.replace ep.by_remote key conn;
        ep.c_accepted <- ep.c_accepted + 1;
        transmit ep ctx ~dst:src_mac
          (blank_seg ~s_type:Connect_confirm ~src_conn:conn.local_id ~dst_conn:seg.src_conn);
        Machine.spawn_thread ep.mach ~name:"decnet-server-conn" (fun () -> accept conn)))
  | Connect_confirm -> (
    match find_conn () with
    | Some conn -> (
      match conn.state with
      | Connecting ->
        conn.remote_id <- seg.src_conn;
        conn.state <- Established;
        Nub.Waiter.notify conn.ack_waiter ~waker:ctx ()
      | Established | Closed -> ())
    | None -> ())
  | Data -> (
    charge ep ctx ~label:"Segment receive processing" seg_recv_us;
    match find_conn () with
    | None ->
      (* unknown connection: tell the peer *)
      transmit ep ctx ~dst:src_mac
        (blank_seg ~s_type:Disconnect ~src_conn:0 ~dst_conn:seg.src_conn)
    | Some conn ->
      let ack_now () =
        transmit ep ctx ~dst:src_mac
          {
            (blank_seg ~s_type:Data_ack ~src_conn:conn.local_id ~dst_conn:conn.remote_id) with
            ack = conn.recv_seq;
          }
      in
      if seg.seq = conn.recv_seq + 1 then begin
        conn.recv_seq <- seg.seq;
        Buffer.add_bytes conn.reassembly seg.payload;
        if not seg.more then begin
          Queue.push (Buffer.to_bytes conn.reassembly) conn.messages;
          Buffer.clear conn.reassembly;
          Nub.Waiter.notify conn.msg_waiter ~waker:ctx ()
        end;
        ack_now ()
      end
      else if seg.seq <= conn.recv_seq then ack_now () (* duplicate: re-ack *)
      else () (* gap: impossible under stop-and-wait; drop *))
  | Data_ack -> (
    charge ep ctx ~label:"Ack processing" ack_recv_us;
    match find_conn () with
    | None -> ()
    | Some conn -> (
      match conn.awaiting_ack with
      | Some pending when seg.ack >= pending ->
        conn.awaiting_ack <- None;
        Nub.Waiter.notify conn.ack_waiter ~waker:ctx ()
      | Some _ | None -> ()))
  | Disconnect -> (
    match find_conn () with
    | None -> ()
    | Some conn ->
      conn.state <- Closed;
      Nub.Waiter.notify conn.msg_waiter ~waker:ctx ();
      Nub.Waiter.notify conn.ack_waiter ~waker:ctx ())

let install_handler ep =
  Node.set_ethertype_handler ep.node ~ethertype (fun ~ctx ~frame ->
      match parse_frame frame with
      | Error e ->
        (match e with
        | "decnet: bad checksum" -> ep.c_cks <- ep.c_cks + 1
        | _ -> ());
        Nub.Driver.Dropped e
      | Ok (seg, src_mac) ->
        handle_segment ep ctx seg ~src_mac;
        Nub.Bufpool.free (Machine.pool ep.mach);
        Nub.Driver.Consumed)

let create node =
  let ep =
    {
      node;
      mach = Node.machine node;
      next_id = 1;
      conns = Hashtbl.create 16;
      by_remote = Hashtbl.create 16;
      listeners = Hashtbl.create 4;
      c_accepted = 0;
      c_sent = 0;
      c_retrans = 0;
      c_cks = 0;
    }
  in
  install_handler ep;
  ep

let listen ep ~space accept = Hashtbl.replace ep.listeners space accept

let connect ep ctx ~peer ~space ?(retransmit_after = default_retransmit)
    ?(max_retries = default_retries) () =
  let conn = make_conn ep ~peer ~retransmit_after ~max_retries ~state:Connecting in
  charge ep ctx ~label:"Connection handshake" handshake_us;
  let payload = Bytes.create 2 in
  Bytes.set_uint16_be payload 0 space;
  (* The confirm is signalled through the ack waiter. *)
  send_reliably conn ctx
    { (blank_seg ~s_type:Connect_init ~src_conn:conn.local_id ~dst_conn:0) with payload }
    ~give_up:"decnet: no response to connect"
    ~settled:(fun () ->
      match conn.state with
      | Established -> true
      | Closed -> fail "decnet: connect refused"
      | Connecting -> false);
  conn

let connections_accepted ep = ep.c_accepted
let segments_sent ep = ep.c_sent
let segments_retransmitted ep = ep.c_retrans
let checksum_rejects ep = ep.c_cks
