(* The fourth transport: a real Unix UDP socket on the loopback
   interface.

   Every datagram's payload is a complete Ethernet/IPv4/UDP/RPC frame
   produced by [Frames.build] — byte for byte the image the simulator
   puts on its wire (and the image the wire fuzzer mutates) — tunnelled
   through a kernel socket.  The receive side runs the same
   [Frames.parse], software checksum verification included, so the
   loopback path drives the production encoders end to end against a
   real network stack: packet loss, reordering and timing are the
   kernel's, not the simulator's.  The protocol itself is
   [Rpc.Exchange], the core the simulated transport drives too; this
   file is only its socket driver. *)

module V = Wire.Bytebuf.View
module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module Frames = Rpc.Frames
module Proto = Rpc.Proto
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal
module Exchange = Rpc.Exchange

exception Call_failed of string

let timing () = Hw.Timing.create Hw.Config.default

(* The same stations and addresses the simulated world uses, so headers
   (and therefore frames) are directly comparable. *)
let caller_endpoint =
  { Frames.mac = Net.Mac.of_station 1; ip = Net.Ipv4.Addr.of_string "16.0.0.1" }

let server_endpoint =
  { Frames.mac = Net.Mac.of_station 2; ip = Net.Ipv4.Addr.of_string "16.0.0.2" }

let close_quietly sock = try Unix.close sock with Unix.Unix_error _ -> ()

(* A datagram socket bound to an ephemeral loopback port, and connected
   to [peer] when one is given. *)
let bound_socket ?peer () =
  match Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | sock -> (
    match
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Option.iter (Unix.connect sock) peer
    with
    | () -> Ok sock
    | exception Unix.Unix_error (e, _, _) ->
      close_quietly sock;
      Error (Unix.error_message e))

let available () =
  match bound_socket () with
  | Ok sock ->
    close_quietly sock;
    true
  | Error _ -> false

type impl = Marshal.value list -> Marshal.value list

(* {1 The socket driver}

   [Rpc.Exchange] decides every packet; both halves below perform its
   outputs: a [Send] becomes a [Frames.build] image in one datagram, an
   [Arm] an absolute wall-clock deadline, and waiting is one blocking
   receive whose timeout is set, before every receive, to the time left
   to the earliest deadline — so a datagram that makes no progress never
   postpones a retransmission. *)

let encode_payload p dir values =
  let w = W.create (max 16 (Idl.args_size_bound p)) in
  Marshal.encode_args w dir p values;
  W.contents w

let now () = Unix.gettimeofday ()
let deadline_after span = now () +. Sim.Time.to_sec span

let frame_bytes tmg ~src ~dst (f : Exchange.frame) =
  let v = f.Exchange.payload in
  Frames.build tmg ~src ~dst ~hdr:f.Exchange.hdr ~payload:(V.buffer v) ~payload_pos:(V.offset v)
    ~payload_len:(V.length v)

let send_to sock addr frame = ignore (Unix.sendto sock frame 0 (Bytes.length frame) [] addr)

(* A connected UDP socket reports an earlier datagram's ICMP
   port-unreachable as ECONNREFUSED on its next send or receive; either
   reads as a lost datagram, which retransmission covers. *)
let send sock frame =
  try ignore (Unix.send sock frame 0 (Bytes.length frame) [])
  with Unix.Unix_error (ECONNREFUSED, _, _) -> ()

(* Sets the socket's receive timeout to [left] seconds, rounded up to
   whole milliseconds and at least 1: a zero SO_RCVTIMEO blocks forever,
   and [Unix.setsockopt_float] truncates anything under 1 µs to zero.
   [in_force] is the value set last, and the result the value now in
   force; the system call runs only when they differ.  Linux keeps the
   timeout in timer ticks, so a deadline fires up to one tick late. *)
let set_timeout sock ~in_force left =
  let ms = max 1 (Float.to_int (Float.ceil (left *. 1e3))) in
  if ms <> in_force then Unix.setsockopt_float sock Unix.SO_RCVTIMEO (Float.of_int ms *. 1e-3);
  ms

(* One datagram and its sender, copied out of [buf]: the core keeps
   views of received fragments until they are reassembled.  A receive
   that times out, is interrupted or reports ECONNREFUSED reads as
   nothing arriving, as does an empty datagram.  The client's socket is
   connected, so it ignores the sender; [recv] would make the same
   system call on Linux. *)
let recv sock buf =
  match Unix.recvfrom sock buf 0 (Bytes.length buf) [] with
  | 0, _ -> None
  | n, addr -> Some (Bytes.sub buf 0 n, addr)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNREFUSED), _, _) -> None

let received (p : Frames.parsed) = { Exchange.hdr = p.Frames.p_hdr; payload = p.Frames.p_payload }

(* {1 Server} *)

type server = {
  s_sock : Unix.file_descr;
  s_port : int;
  s_intf : Idl.interface;
  s_id : int32;
  s_impls : impl array;
  s_tmg : Hw.Timing.t;
  s_stop : bool Atomic.t;
  s_rejected : int Atomic.t;
  mutable s_thread : Thread.t option;
}

let server_port s = s.s_port
let server_rejected s = Atomic.get s.s_rejected

(* The server's retransmission schedule for stop-and-wait results: the
   client's defaults. *)
let server_options =
  { Exchange.retransmit_after = Sim.Time.ms 50; max_retries = 40; backoff = None }

(* How often the receive loop looks at the stop flag: the longest
   receive timeout. *)
let stop_poll = 0.02

let dispatch s (h : Proto.header) payload =
  if h.Proto.interface_id <> s.s_id then
    Error (Printf.sprintf "no interface %ld exported" h.Proto.interface_id)
  else if h.Proto.proc_idx < 0 || h.Proto.proc_idx >= Array.length s.s_intf.Idl.procs then
    Error (Printf.sprintf "bad procedure index %d" h.Proto.proc_idx)
  else begin
    let p = s.s_intf.Idl.procs.(h.Proto.proc_idx) in
    match Marshal.decode_args (R.of_view payload) Marshal.In_call_packet p with
    | exception Rpc.Rpc_error.Rpc e -> Error (Rpc.Rpc_error.to_string e)
    | in_values -> (
      match s.s_impls.(h.Proto.proc_idx) in_values with
      | exception Rpc.Rpc_error.Rpc e -> Error (Rpc.Rpc_error.to_string e)
      | exception e -> Error ("implementation raised: " ^ Printexc.to_string e)
      | outs -> (
        try
          let full = Marshal.merge_outs p in_values outs in
          Ok (encode_payload p Marshal.In_result_packet full, false)
        with Rpc.Rpc_error.Rpc e -> Error (Rpc.Rpc_error.to_string e)))
  end

(* One receive loop over every activity.  Calls execute inline; a
   transfer waiting on its caller (collecting fragments, or awaiting a
   result fragment's ack) keeps a deadline in [waiting], and each
   [recvfrom] waits no longer than the time left to the earliest one,
   nor than [stop_poll]. *)
let server_loop s =
  let core =
    Exchange.Server.create server_options
      ~max_payload:(Hw.Timing.max_payload_bytes s.s_tmg)
      ~streaming:false
  in
  let waiting = ref [] in
  let settle tr = waiting := List.remove_assq tr !waiting in
  let rec perform tr = function
    | [] -> ()
    | Exchange.Send (addr, f) :: rest ->
      send_to s.s_sock addr (frame_bytes s.s_tmg ~src:server_endpoint ~dst:caller_endpoint f);
      perform tr rest
    | Exchange.Arm span :: rest ->
      Option.iter (fun t -> waiting := (t, deadline_after span) :: List.remove_assq t !waiting) tr;
      perform tr rest
    | Exchange.Note _ :: rest -> perform tr rest
    | last :: _ -> (
      Option.iter settle tr;
      match (last, tr) with
      | Exchange.Execute { Exchange.hdr; payload }, Some t ->
        perform tr (Exchange.Server.reply t (dispatch s hdr payload))
      | _ -> ())
  in
  let buf = Bytes.create 4096 and timeout_ms = ref 0 in
  while not (Atomic.get s.s_stop) do
    let left =
      match !waiting with
      | [] -> stop_poll
      | w ->
        let t = now () in
        List.fold_left (fun acc (_, d) -> Float.min acc (d -. t)) stop_poll w
    in
    timeout_ms := set_timeout s.s_sock ~in_force:!timeout_ms left;
    (match recv s.s_sock buf with
    | None -> ()
    | Some (dat, addr) -> (
      match Frames.parse s.s_tmg dat with
      | Error _ -> Atomic.incr s.s_rejected
      | Ok p ->
        let tr, outputs = Exchange.Server.receive core ~from:addr (received p) in
        perform tr outputs));
    match !waiting with
    | [] -> ()
    | w ->
      let t = now () in
      List.iter
        (fun (tr, d) ->
          if d <= t then begin
            settle tr;
            perform (Some tr) (Exchange.Server.expire tr)
          end)
        w
  done

let start_server ~intf ~impls () =
  if Array.length impls <> Array.length intf.Idl.procs then
    invalid_arg "Udp_socket.start_server: one impl per procedure";
  match bound_socket () with
  | Error e -> Error e
  | Ok sock -> (
    match Unix.getsockname sock with
    | exception Unix.Unix_error (e, _, _) ->
      close_quietly sock;
      Error (Unix.error_message e)
    | Unix.ADDR_UNIX _ ->
      close_quietly sock;
      Error "unexpected socket address family"
    | Unix.ADDR_INET (_, port) ->
      let s =
        {
          s_sock = sock;
          s_port = port;
          s_intf = intf;
          s_id = Idl.interface_id intf;
          s_impls = impls;
          s_tmg = timing ();
          s_stop = Atomic.make false;
          s_rejected = Atomic.make 0;
          s_thread = None;
        }
      in
      s.s_thread <- Some (Thread.create server_loop s);
      Ok s)

let stop_server s =
  Atomic.set s.s_stop true;
  (match s.s_thread with Some t -> Thread.join t | None -> ());
  close_quietly s.s_sock

(* {1 Client} *)

type client = {
  c_sock : Unix.file_descr;
  c_dst : Unix.sockaddr;  (* the socket's connected peer, and the core's name for it *)
  c_tmg : Hw.Timing.t;
  c_intf : Idl.interface;
  c_id : int32;
  c_act : Proto.Activity.t;
  mutable c_seq : int;
  c_server_space : int;
  c_opts : Exchange.options;
  c_capture : (dir:[ `Tx | `Rx ] -> Bytes.t -> unit) option;
  c_send_filter : (Bytes.t -> bool) option;
  c_buf : Bytes.t;
  mutable c_timeout_ms : int;  (* the socket's receive timeout; 0 until a wait sets it *)
}

let connect ?capture ?send_filter ?(retransmit_after = 0.05) ?(max_retries = 40)
    ?(thread = 1) ~port ~intf () =
  let dst = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  Result.map
    (fun sock ->
      {
        c_sock = sock;
        c_dst = dst;
        c_tmg = timing ();
        c_intf = intf;
        c_id = Idl.interface_id intf;
        c_act = { Proto.Activity.caller_ip = caller_endpoint.Frames.ip; caller_space = 1; thread };
        c_seq = 0;
        c_server_space = 1;
        c_opts =
          { Exchange.retransmit_after = Sim.Time.sec_f retransmit_after; max_retries; backoff = None };
        c_capture = capture;
        c_send_filter = send_filter;
        c_buf = Bytes.create 4096;
        c_timeout_ms = 0;
      })
    (bound_socket ~peer:dst ())

let close c = close_quietly c.c_sock

let client_send c frame =
  (match c.c_capture with Some f -> f ~dir:`Tx (Bytes.copy frame) | None -> ());
  let deliver = match c.c_send_filter with Some f -> f frame | None -> true in
  if deliver then send c.c_sock frame

let send_raw c bytes = send c.c_sock bytes

let call c ~proc_idx ~args =
  let intf = c.c_intf in
  if proc_idx < 0 || proc_idx >= Array.length intf.Idl.procs then
    raise (Call_failed (Printf.sprintf "bad procedure index %d" proc_idx));
  let p = intf.Idl.procs.(proc_idx) in
  c.c_seq <- c.c_seq + 1;
  let caller, outputs =
    Exchange.Caller.start c.c_opts
      ~max_payload:(Hw.Timing.max_payload_bytes c.c_tmg)
      ~peer:c.c_dst ~activity:c.c_act ~seq:c.c_seq ~server_space:c.c_server_space
      ~interface_id:c.c_id ~proc_idx ~secured:false
      (encode_payload p Marshal.In_call_packet args)
  in
  let deadline = ref 0. in
  let rec run = function
    | [] -> wait ()
    | Exchange.Send (_, f) :: rest ->
      client_send c (frame_bytes c.c_tmg ~src:caller_endpoint ~dst:server_endpoint f);
      run rest
    | Exchange.Arm span :: rest ->
      deadline := deadline_after span;
      run rest
    | Exchange.Note _ :: rest -> run rest
    | Exchange.Deliver { payload; _ } :: _ ->
      Marshal.extract_outs p (Marshal.decode_args (R.of_view payload) Marshal.In_result_packet p)
    | Exchange.Give_up msg :: _ -> raise (Call_failed msg)
    | (Exchange.Execute _ | Exchange.Retain) :: _ ->
      raise (Call_failed "caller exchange ended without a result")
  and wait () =
    let left = !deadline -. now () in
    if left <= 0. then run (Exchange.Caller.expire caller)
    else begin
      c.c_timeout_ms <- set_timeout c.c_sock ~in_force:c.c_timeout_ms left;
      match recv c.c_sock c.c_buf with
      | None -> wait ()
      | Some (dat, _) -> (
        (match c.c_capture with Some f -> f ~dir:`Rx dat | None -> ());
        match Frames.parse c.c_tmg dat with
        | Error _ -> wait ()
        | Ok parsed -> run (Exchange.Caller.input caller (received parsed)))
    end
  in
  run outputs
