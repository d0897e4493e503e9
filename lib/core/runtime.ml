module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Timing = Hw.Timing
module Machine = Nub.Machine
module Activity = Proto.Activity
module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module V = Wire.Bytebuf.View

type impl = Cpu_set.ctx -> Marshal.value list -> Marshal.value list

type export_rec = {
  ex_intf : Idl.interface;
  ex_impls : impl array;
  ex_auth : Secure.key option;
}

(* A same-machine call; the server thread notifies [lc_done] with the
   outcome. *)
type local_call = {
  lc_intf_id : int32;
  lc_proc : int;
  lc_payload : Bytes.t;
  lc_done : (Bytes.t, string) result Nub.Waiter.t;
}

type t = {
  rt_node : Node.t;
  rt_space : int;
  rt_exports : (int32, export_rec) Hashtbl.t;
  rt_server : Frames.endpoint Exchange.Server.t;
  rt_pool : Node.delivery Nub.Waiter.Pool.t;  (* the packet exchange's server threads *)
  rt_local : local_call Nub.Waiter.Pool.t;  (* the shared-memory server threads *)
  (* Scratch buffer for marshalling payloads: stubs encode into this
     reusable buffer and copy out exactly the bytes written, instead of
     allocating a worst-case-bound buffer per call.  Safe without a
     lock: encoding performs no engine effects, so simulated threads
     never interleave inside it. *)
  mutable rt_scratch : Bytes.t;
  mutable rt_next_thread : int;
  mutable rt_exec_probe : (Activity.t -> int -> unit) option;
  mutable c_calls : int;
  mutable c_served : int;
  mutable c_retrans : int;
  mutable c_dups : int;
  mutable c_busy : int;
}

let node t = t.rt_node
let machine t = Node.machine t.rt_node
let space t = t.rt_space
let timing t = Node.timing t.rt_node
let engine t = Machine.engine (machine t)
let retain_gc_after = Time.sec 5

(* Every server's schedule, and a binding's default: the first
   retransmission after 600 ms (§5's lost packet cost "about 600
   milliseconds waiting for a retransmission"), 10 retries, no
   backoff. *)
let default_options =
  { Exchange.retransmit_after = Time.ms 600; max_retries = 10; backoff = None }

let create nd ~space =
  let t =
    {
      rt_node = nd;
      rt_space = space;
      rt_exports = Hashtbl.create 8;
      rt_server =
        (let m = Node.machine nd in
         Exchange.Server.create default_options
           ~max_payload:(Timing.max_payload_bytes (Machine.timing m))
           ~streaming:(Machine.config m).Hw.Config.streaming_results);
      rt_pool = Node.serve_space nd ~space;
      rt_local = Nub.Waiter.Pool.create ();
      rt_scratch = Bytes.create 2048;
      rt_next_thread = 1;
      rt_exec_probe = None;
      c_calls = 0;
      c_served = 0;
      c_retrans = 0;
      c_dups = 0;
      c_busy = 0;
    }
  in
  let reg = (Machine.obs (machine t)).Obs.Ctx.metrics in
  let site = Machine.name (machine t) in
  let metric what = Printf.sprintf "rpc.s%d.%s" space what in
  let counter what read =
    Obs.Metrics.Registry.register_counter_fn reg ~site ~name:(metric what) read
  in
  counter "calls" (fun () -> t.c_calls);
  counter "served" (fun () -> t.c_served);
  counter "retransmissions" (fun () -> t.c_retrans);
  counter "duplicates" (fun () -> t.c_dups);
  counter "busy_rejects" (fun () -> t.c_busy);
  t

let journal t ev =
  let m = machine t in
  Obs.Ctx.record (Machine.obs m) ~at:(Engine.now (Machine.engine m)) ~site:(Machine.name m) ev

(* {1 Clients} *)

type client = { cl_rt : t; cl_act : Activity.t; mutable cl_seq : int }

let new_client t =
  let thread = t.rt_next_thread in
  t.rt_next_thread <- thread + 1;
  {
    cl_rt = t;
    cl_act = { Activity.caller_ip = Machine.ip (machine t); caller_space = t.rt_space; thread };
    cl_seq = 0;
  }

(* {1 Common helpers} *)

let cat_rt = "runtime"
let charge_rt ctx ~label span = Cpu_set.charge ctx ~cat:cat_rt ~label span

(* Blocking packet-buffer allocation: the fast path assumes buffers are
   free; under exhaustion a thread polls until one returns.  Time spent
   polling is buffer-pool queueing delay, recorded against the waiting
   call. *)
let alloc_bufs t ctx n =
  let pool = Machine.pool (machine t) in
  for _ = 1 to n do
    if not (Nub.Bufpool.try_alloc pool) then begin
      let eng = engine t in
      let start_at = Engine.now eng in
      while not (Nub.Bufpool.try_alloc pool) do
        Cpu_set.yield_cpu ctx (fun () -> Engine.delay eng (Time.us 100))
      done;
      Sim.Trace.add ~track:"pool" ~kind:Sim.Trace.Queue ~call:(Cpu_set.trace_call ctx)
        (Engine.trace eng) ~cat:"queue" ~label:"Wait for packet buffer"
        ~site:(Machine.name (machine t)) ~start_at ~stop_at:(Engine.now eng)
    end
  done

let free_bufs t n =
  let pool = Machine.pool (machine t) in
  for _ = 1 to n do
    Nub.Bufpool.free pool
  done

let encode_payload t p dir values =
  let bound = max (Idl.args_size_bound p) 16 in
  if Bytes.length t.rt_scratch < bound then
    t.rt_scratch <- Bytes.create (max bound (2 * Bytes.length t.rt_scratch));
  let w = W.over t.rt_scratch ~pos:0 in
  Marshal.encode_args w dir p values;
  W.contents w

(* {1 Server dispatch (shared by both transports)}

   Returns the (possibly sealed) result payload and whether it is
   sealed.  [secured]/[seq] describe the incoming call for the §7
   authenticated-call hooks: a keyed export rejects unsealed remote
   calls, verifies and deciphers sealed ones, and seals its results
   under the same key.  [trusted] is set by the same-machine transport,
   where the shared-memory path is inside the trust boundary. *)

let charge_security t ctx ~bytes =
  charge_rt ctx ~label:"Security transform" (Secure.cost (timing t) ~bytes)

let dispatch t ctx ~intf_id ~proc_idx ~payload ~secured ~seq ~trusted :
    (Bytes.t * bool, string) result =
  let tmg = timing t in
  match Hashtbl.find_opt t.rt_exports intf_id with
  | None -> Error (Printf.sprintf "no interface %ld exported from space %d" intf_id t.rt_space)
  | Some ex ->
    if proc_idx < 0 || proc_idx >= Array.length ex.ex_intf.Idl.procs then
      Error (Printf.sprintf "bad procedure index %d" proc_idx)
    else begin
      let unsealed =
        match ex.ex_auth, secured with
        | None, false -> Ok payload
        | None, true -> Error "secured call to an unkeyed interface"
        | Some _, false ->
          if trusted then Ok payload else Error "authentication required"
        | Some key, true -> (
          charge_security t ctx ~bytes:(V.length payload);
          (* Unsealing necessarily materialises the ciphertext; the
             common unsecured path stays zero-copy. *)
          match Secure.unseal key ~seq (V.to_bytes payload) with
          | Ok plain -> Ok (V.of_bytes plain)
          | Error e -> Error e)
      in
      match unsealed with
      | Error e -> Error e
      | Ok payload -> (
        let p = ex.ex_intf.Idl.procs.(proc_idx) in
        match
          try Ok (Marshal.decode_args (R.of_view payload) Marshal.In_call_packet p)
          with Rpc_error.Rpc e -> Error (Rpc_error.to_string e)
        with
        | Error e -> Error e
        | Ok in_values -> (
          Marshal.charge_args tmg ctx Marshal.Server_side Marshal.In_call_packet p in_values;
          charge_rt ctx ~label:"Server stub (call & return)" (Timing.server_stub tmg);
          match
            (* A buggy implementation must not take the worker thread
               down: any exception becomes an error reply to the caller. *)
            try Ok (ex.ex_impls.(proc_idx) ctx in_values) with
            | Rpc_error.Rpc e -> Error (Rpc_error.to_string e)
            | Stack_overflow | Out_of_memory -> Error "server resource exhaustion"
            | e -> Error ("implementation raised: " ^ Printexc.to_string e)
          with
          | Error e -> Error e
          | Ok outs -> (
            try
              let full = Marshal.merge_outs p in_values outs in
              let result = encode_payload t p Marshal.In_result_packet full in
              (* VAR OUT results are written in place by the server
                 procedure — no server-side copy (§2.2); Value/Text
                 server marshalling costs are charged here. *)
              Marshal.charge_args tmg ctx Marshal.Server_side Marshal.In_result_packet p full;
              t.c_served <- t.c_served + 1;
              match ex.ex_auth with
              | Some key when secured ->
                charge_security t ctx ~bytes:(Bytes.length result);
                Ok (Secure.seal key ~seq result, true)
              | Some _ | None -> Ok (result, false)
            with Rpc_error.Rpc e -> Error (Rpc_error.to_string e))))
    end

(* {1 Bindings} *)

type backoff = Exchange.backoff = { multiplier : float; max_interval : Time.span }

type call_options = Exchange.options = {
  retransmit_after : Time.span;
  max_retries : int;
  backoff : backoff option;
}

type ether_binding = {
  be_dst : Frames.endpoint;
  be_space : int;
  be_intf : Idl.interface;
  be_id : int32;
  be_opts : call_options;
  be_auth : Secure.key option;
}

(* A DECNet session: one connection, established lazily, calls
   serialized on it (the custom packet-exchange protocol exists exactly
   because this general-purpose path is heavier, §3.1). *)
type decnet_binding = {
  dn_ep : Decnet.endpoint;
  dn_peer : Net.Mac.t;
  dn_space : int;
  dn_intf : Idl.interface;
  dn_id : int32;
  dn_lock : Sim.Resource.t;
  mutable dn_conn : Decnet.conn option;
  mutable dn_next_call : int;
}

type local_binding = { bl_server : t; bl_intf : Idl.interface; bl_id : int32 }

type binding =
  | Ether of ether_binding
  | Local of local_binding
  | Decnet of decnet_binding

let bind_ether ?auth ~dst ~server_space intf ~options =
  Ether
    {
      be_dst = dst;
      be_space = server_space;
      be_intf = intf;
      be_id = Idl.interface_id intf;
      be_opts = options;
      be_auth = auth;
    }

let bind_local ~server intf =
  Local { bl_server = server; bl_intf = intf; bl_id = Idl.interface_id intf }

let bind_decnet t ~ep ~peer ~server_space intf =
  Decnet
    {
      dn_ep = ep;
      dn_peer = peer;
      dn_space = server_space;
      dn_intf = intf;
      dn_id = Idl.interface_id intf;
      dn_lock = Sim.Resource.create (engine t);
      dn_conn = None;
      dn_next_call = 0;
    }

let binding_interface = function
  | Ether b -> b.be_intf
  | Local b -> b.bl_intf
  | Decnet b -> b.dn_intf

let is_local = function Local _ -> true | Ether _ | Decnet _ -> false

(* {1 The shared Starter prologue}

   Every transport starts a call the same way: bounds-check the
   procedure, count the call, open a causal trace for it (everything the
   calling thread charges until the result returns — and, via the id
   each frame carries and wakeup propagation, everything the server and
   both controllers do on its behalf — attributes to this id; a no-op id of
   [Sim.Trace.no_call] flows through when tracing is off), and charge
   the calling stub.  The transport-specific Starter/Transporter/Ender
   body runs under that trace id. *)

let start_call client ctx intf ~proc_idx body =
  let t = client.cl_rt in
  let tmg = timing t in
  if proc_idx < 0 || proc_idx >= Array.length intf.Idl.procs then
    Rpc_error.fail (Rpc_error.Bad_procedure proc_idx);
  let p = intf.Idl.procs.(proc_idx) in
  t.c_calls <- t.c_calls + 1;
  let prev_call = Cpu_set.trace_call ctx in
  Cpu_set.set_trace_call ctx (Sim.Trace.new_call (Engine.trace (engine t)));
  Fun.protect ~finally:(fun () -> Cpu_set.set_trace_call ctx prev_call) @@ fun () ->
  charge_rt ctx ~label:"Calling stub (call & return)" (Timing.calling_stub tmg);
  body t tmg p

(* {1 The Ethernet transport: the simulated driver}

   {!Exchange} decides every packet of the exchange; this driver
   performs its outputs, in order, on the simulated machine.  Sends go
   through {!Node.send}, which charges the Table VI sending steps; notes
   move the journal, the counters and the packet-buffer pool; an [Arm]
   reads the engine clock — only there, after whatever send precedes
   it — so each deadline falls where the protocol's timing puts it. *)

let max_payload t = Timing.max_payload_bytes (timing t)

(* Perform one non-terminal output; [Arm] is the wait loop's. *)
let perform t ctx = function
  | Exchange.Send (dst, { Exchange.hdr; payload = v }) ->
    (* A view goes out without being materialised: the frame builder
       copies straight out of the viewed window. *)
    Node.send t.rt_node ~ctx ~dst ~hdr ~payload:(V.buffer v) ~payload_pos:(V.offset v)
      ~payload_len:(V.length v)
  | Exchange.Note (Exchange.Retransmit seq) ->
    t.c_retrans <- t.c_retrans + 1;
    journal t (Obs.Journal.Retransmit { seq })
  | Exchange.Note (Exchange.Ack seq) -> journal t (Obs.Journal.Ack { seq })
  | Exchange.Note (Exchange.Duplicate seq) ->
    t.c_dups <- t.c_dups + 1;
    journal t (Obs.Journal.Retransmit { seq })
  | Exchange.Note (Exchange.Busy _) -> t.c_busy <- t.c_busy + 1
  | Exchange.Note (Exchange.Released frames) -> free_bufs t frames
  | Exchange.Note (Exchange.Transmit { frames; _ }) ->
    alloc_bufs t ctx frames;
    charge_rt ctx ~label:"Receiver (send result pkt)" (Timing.receiver_send (timing t))
  | Exchange.Arm _ | Exchange.Deliver _ | Exchange.Execute _ | Exchange.Retain
  | Exchange.Give_up _ ->
    ()

(* The one wait loop.  Perform [outputs] in order, calling [after] on
   each, until a terminal one, which is returned; in between, wait on
   [w] for a delivery or the armed deadline and feed it back through
   [input] or [expire].  A delivery that makes no progress arms
   nothing, so it cannot push a retransmission out: a peer spamming
   unrelated packets would otherwise suppress ours forever — a livelock
   the protocol property tests caught. *)
let exchange t ctx w ?(after = ignore) ~input ~expire outputs =
  let eng = engine t in
  let deadline = ref Time.zero in
  let rec deliver (d : Node.delivery) =
    run (input { Exchange.hdr = d.Node.d_hdr; payload = d.Node.d_payload })
  and run = function
    | [] -> wait ()
    | (Exchange.Deliver _ | Exchange.Execute _ | Exchange.Retain | Exchange.Give_up _) as o :: _ -> o
    | o :: rest ->
      (match o with
      | Exchange.Arm span -> deadline := Time.add (Engine.now eng) span
      | _ -> perform t ctx o);
      after o;
      run rest
  and wait () =
    match Nub.Waiter.poll w ctx with
    | Some d -> deliver d
    | None -> (
      let now = Engine.now eng in
      if Time.(!deadline <= now) then run (expire ())
      else
        match Nub.Waiter.wait_timeout w ctx ~timeout:(Time.diff !deadline now) with
        | Some d -> deliver d
        | None -> wait ())
  in
  run outputs

(* {2 Caller side} *)

let call_ether client ctx (b : ether_binding) ~proc_idx ~args =
  start_call client ctx b.be_intf ~proc_idx @@ fun t tmg p ->
  (* Starter: obtain a packet buffer with a partially filled header. *)
  charge_rt ctx ~label:"Starter" (Timing.starter tmg);
  client.cl_seq <- client.cl_seq + 1;
  let seq = client.cl_seq in
  let payload = encode_payload t p Marshal.In_call_packet args in
  Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_call_packet p args;
  (* Authenticated binding: seal the whole call payload before
     fragmentation (§7's security hooks). *)
  let payload, secured =
    match b.be_auth with
    | None -> (payload, false)
    | Some key ->
      charge_security t ctx ~bytes:(Bytes.length payload);
      (Secure.seal key ~seq payload, true)
  in
  let frags = Exchange.fragment_count ~max_payload:(max_payload t) (Bytes.length payload) in
  let act = client.cl_act in
  let w = Machine.new_waiter (machine t) in
  Node.register_caller t.rt_node act w;
  (* Every exit — result, clean failure, or an unexpected exception in
     the unmarshalling path — must unregister the call and return the
     packet buffers, or the activity wedges and the pool leaks. *)
  Fun.protect ~finally:(fun () -> Node.unregister_caller t.rt_node act) @@ fun () ->
  alloc_bufs t ctx frags;
  Fun.protect ~finally:(fun () -> free_bufs t frags) @@ fun () ->
  (* Transporter: send the call packet(s), wait for the result. *)
  charge_rt ctx ~label:"Transporter (send call pkt)" (Timing.transporter_send tmg);
  let caller, outputs =
    Exchange.Caller.start b.be_opts ~max_payload:(max_payload t) ~peer:b.be_dst ~activity:act
      ~seq ~server_space:b.be_space ~interface_id:b.be_id ~proc_idx ~secured payload
  in
  let registered = ref false in
  let after = function
    | Exchange.Send (_, { Exchange.hdr = { Proto.ptype = Proto.Call; _ }; _ }) ->
      (* The caller's send path through trap return and scheduler is
         longer on a uniprocessor (§5, calibrated against Table X). *)
      charge_rt ctx ~label:"Uniprocessor send path" (Timing.uniproc_caller_send_extra tmg);
      if not !registered then begin
        registered := true;
        (* Registering the outstanding call overlaps transmission on a
           multiprocessor: charged after the first send (§3.1.3). *)
        charge_rt ctx ~label:"Register call" (Timing.register_call tmg);
        charge_rt ctx ~label:"Multiprocessor fix" (Timing.multiproc_fix_cost tmg)
      end
    | _ -> ()
  in
  match
    exchange t ctx w ~after ~input:(Exchange.Caller.input caller)
      ~expire:(fun () -> Exchange.Caller.expire caller)
      outputs
  with
  | Exchange.Deliver { payload = result_payload; secured = result_secured } ->
    charge_rt ctx ~label:"Transporter (receive result pkt)" (Timing.transporter_recv tmg);
    let result_payload =
      match b.be_auth, result_secured with
      | None, false -> result_payload
      | None, true ->
        Rpc_error.fail (Rpc_error.Protocol_violation "secured result on an unkeyed binding")
      | Some _, false ->
        Rpc_error.fail (Rpc_error.Protocol_violation "server returned an unsecured result")
      | Some key, true -> (
        charge_security t ctx ~bytes:(V.length result_payload);
        match Secure.unseal key ~seq (V.to_bytes result_payload) with
        | Ok plain -> V.of_bytes plain
        | Error e -> Rpc_error.fail (Rpc_error.Call_failed e))
    in
    let full = Marshal.decode_args (R.of_view result_payload) Marshal.In_result_packet p in
    Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_result_packet p full;
    (* Ender: return the result packet to the free pool. *)
    charge_rt ctx ~label:"Ender" (Timing.ender tmg);
    Marshal.extract_outs p full
  | Exchange.Give_up msg -> Rpc_error.fail (Rpc_error.Call_failed msg)
  | Exchange.Send _ | Exchange.Arm _ | Exchange.Note _ | Exchange.Execute _ | Exchange.Retain ->
    Rpc_error.fail (Rpc_error.Protocol_violation "caller exchange ended without a result")

(* {2 Server side} *)

(* A retained result not reclaimed by the activity's next call is freed
   after a few seconds, bounding pool usage from departed callers. *)
let schedule_retain_gc t tr =
  let reclaim = Exchange.Server.reclaim tr in
  Engine.schedule (engine t) ~after:retain_gc_after (fun () -> free_bufs t (reclaim ()))

(* One waiting phase of a server transfer: collecting the call, or
   sending its result.  While it waits, the activity's fragment sink
   routes call fragments and acks to this worker: it goes up at the
   first [Arm] — or, for a stop-and-wait result, before the first frame
   leaves — and always comes down.  Result buffers are held from
   [Transmit] until the transfer retains them; an exception in between
   returns them and stops the activity working. *)
let serve t ctx w ~act tr outputs =
  let sink = ref false and held = ref 0 in
  let after o =
    (match o with Exchange.Note (Exchange.Transmit { frames; _ }) -> held := frames | _ -> ());
    match o with
    | (Exchange.Arm _ | Exchange.Note (Exchange.Transmit { acked = true; _ })) when not !sink ->
      Node.register_fragment_sink t.rt_node act w;
      sink := true
    | _ -> ()
  in
  Fun.protect ~finally:(fun () -> if !sink then Node.unregister_fragment_sink t.rt_node act)
  @@ fun () ->
  match
    exchange t ctx w ~after ~input:(Exchange.Server.input tr)
      ~expire:(fun () -> Exchange.Server.expire tr)
      outputs
  with
  | last -> last
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    free_bufs t !held;
    Exchange.Server.abort tr;
    Printexc.raise_with_backtrace e bt

let handle_call t ctx w (d : Node.delivery) =
  let tmg = timing t in
  (* Take the call id from the delivered frame rather than trusting
     whatever wakeup last stamped this worker's context — backlog drains
     and handoffs reuse worker threads across calls. *)
  Cpu_set.set_trace_call ctx d.Node.d_call;
  charge_rt ctx ~label:"Receiver (receive call pkt)" (Timing.receiver_recv tmg);
  match
    Exchange.Server.call t.rt_server ~from:d.Node.d_src
      { Exchange.hdr = d.Node.d_hdr; payload = d.Node.d_payload }
  with
  | None, outputs -> List.iter (perform t ctx) outputs
  | Some tr, outputs -> (
    let act = d.Node.d_hdr.Proto.activity in
    match serve t ctx w ~act tr outputs with
    | Exchange.Execute { Exchange.hdr = h; payload } -> (
      (match t.rt_exec_probe with
      | Some probe -> probe h.Proto.activity h.Proto.seq
      | None -> ());
      let outcome =
        dispatch t ctx ~intf_id:h.Proto.interface_id ~proc_idx:h.Proto.proc_idx ~payload
          ~secured:h.Proto.secured ~seq:h.Proto.seq ~trusted:false
      in
      match serve t ctx w ~act tr (Exchange.Server.reply tr outcome) with
      | Exchange.Retain -> schedule_retain_gc t tr
      | _ -> () (* superseded by a newer call of the activity *))
    | _ -> () (* the caller went silent mid-call *))

(* The server worker (§3.1.3's Receiver loop): take the oldest call the
   datalink thread queued, or else park in the space's pool, where the
   interrupt routine hands the next call straight to this thread.  Each
   call gets a fresh waiter, which becomes its fragment sink. *)
let worker_loop t ctx =
  let rec loop () =
    let w = Machine.new_waiter (machine t) in
    handle_call t ctx w (Nub.Waiter.Pool.next t.rt_pool w ctx);
    loop ()
  in
  loop ()

(* {1 The local (same-machine, shared-memory) transport} *)

(* The same-machine server thread: the oldest queued call, or else
   park in the runtime's local pool until a caller hands one over. *)
let local_worker_loop t ctx =
  let tmg = timing t in
  let me = Machine.new_waiter (machine t) in
  let rec loop () =
    let lc = Nub.Waiter.Pool.next t.rt_local me ctx in
    charge_rt ctx ~label:"Receiver (local)" (Timing.local_receiver tmg);
    (* Shared memory on the same machine is inside the trust boundary:
       local calls bypass sealing even to keyed interfaces. *)
    let outcome =
      Result.map fst
        (dispatch t ctx ~intf_id:lc.lc_intf_id ~proc_idx:lc.lc_proc
           ~payload:(V.of_bytes lc.lc_payload) ~secured:false ~seq:0 ~trusted:true)
    in
    charge_rt ctx ~label:"Receiver send (local)" (Timing.local_receiver_send tmg);
    Nub.Waiter.notify lc.lc_done ~waker:ctx outcome;
    loop ()
  in
  loop ()

let call_local client ctx (b : local_binding) ~proc_idx ~args =
  let server = b.bl_server in
  start_call client ctx b.bl_intf ~proc_idx @@ fun t tmg p ->
  charge_rt ctx ~label:"Starter (local)" (Timing.local_starter tmg);
  alloc_bufs t ctx 1;
  (* One pool buffer models the local call packet; it must return to the
     pool even when marshalling or the server's reply raises. *)
  Fun.protect ~finally:(fun () -> free_bufs t 1) @@ fun () ->
  let payload = encode_payload t p Marshal.In_call_packet args in
  Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_call_packet p args;
  charge_rt ctx ~label:"Transporter send (local)" (Timing.local_transporter_send tmg);
  let lc =
    {
      lc_intf_id = b.bl_id;
      lc_proc = proc_idx;
      lc_payload = payload;
      lc_done = Machine.new_waiter (machine t);
    }
  in
  (* A busy server thread takes queued calls before it parks again. *)
  if not (Nub.Waiter.Pool.offer server.rt_local ~waker:ctx lc) then
    Nub.Waiter.Pool.queue server.rt_local lc;
  let outcome = Nub.Waiter.wait lc.lc_done ctx in
  charge_rt ctx ~label:"Transporter receive (local)" (Timing.local_transporter_recv tmg);
  match outcome with
  | Error msg ->
    charge_rt ctx ~label:"Ender (local)" (Timing.local_ender tmg);
    Rpc_error.fail (Rpc_error.Call_failed ("server: " ^ msg))
  | Ok result_payload ->
    let full = Marshal.decode_args (R.of_bytes result_payload) Marshal.In_result_packet p in
    Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_result_packet p full;
    charge_rt ctx ~label:"Ender (local)" (Timing.local_ender tmg);
    Marshal.extract_outs p full

(* {1 RPC over DECNet}

   Requests: intf_id(4) proc(2) call_id(4) args-payload.
   Replies:  call_id(4) status(1: 0=ok 1=error) payload. *)

let encode_dn_request ~intf_id ~proc_idx ~call_id payload =
  let w = W.create (10 + Bytes.length payload) in
  W.u32 w intf_id;
  W.u16 w proc_idx;
  W.u32 w (Int32.of_int call_id);
  W.bytes w payload;
  W.to_bytes w

let decode_dn_request msg =
  try
    let r = R.of_bytes msg in
    let intf_id = R.u32 r in
    let proc_idx = R.u16 r in
    let call_id = Int32.to_int (R.u32 r) in
    Ok (intf_id, proc_idx, call_id, R.view r (R.remaining r))
  with Wire.Bytebuf.Overflow _ -> Error "decnet-rpc: truncated request"

let encode_dn_reply ~call_id ~ok payload =
  let w = W.create (5 + Bytes.length payload) in
  W.u32 w (Int32.of_int call_id);
  W.u8 w (if ok then 0 else 1);
  W.bytes w payload;
  W.to_bytes w

let decode_dn_reply msg =
  try
    let r = R.of_bytes msg in
    let call_id = Int32.to_int (R.u32 r) in
    let ok = R.u8 r = 0 in
    Ok (call_id, ok, R.view r (R.remaining r))
  with Wire.Bytebuf.Overflow _ -> Error "decnet-rpc: truncated reply"

(* Server side: one thread per accepted connection, dispatching into
   this runtime's exports.  DECNet carries no sealing, so keyed exports
   reject these calls like any other unauthenticated remote call. *)
let decnet_listen t ep =
  Decnet.listen ep ~space:t.rt_space (fun conn ->
      let mach = machine t in
      Cpu_set.with_cpu (Machine.cpus mach) (fun ctx ->
          let tmg = timing t in
          let rec serve () =
            match Decnet.recv_message conn ctx ~timeout:(Time.sec 60) with
            | None -> if Decnet.is_open conn then Decnet.close conn ctx
            | Some msg ->
              charge_rt ctx ~label:"Receiver (receive call pkt)" (Timing.receiver_recv tmg);
              (match decode_dn_request msg with
              | Error e ->
                ignore e (* malformed request: drop; the session survives *)
              | Ok (intf_id, proc_idx, call_id, payload) ->
                let outcome =
                  Result.map fst
                    (dispatch t ctx ~intf_id ~proc_idx ~payload ~secured:false ~seq:call_id
                       ~trusted:false)
                in
                charge_rt ctx ~label:"Receiver (send result pkt)" (Timing.receiver_send tmg);
                let reply =
                  match outcome with
                  | Ok payload -> encode_dn_reply ~call_id ~ok:true payload
                  | Error e -> encode_dn_reply ~call_id ~ok:false (Bytes.of_string e)
                in
                (try Decnet.send_message conn ctx reply
                 with Rpc_error.Rpc _ -> Decnet.close conn ctx));
              serve ()
          in
          serve ()))

let call_decnet client ctx (b : decnet_binding) ~proc_idx ~args =
  start_call client ctx b.dn_intf ~proc_idx @@ fun t tmg p ->
  charge_rt ctx ~label:"Starter" (Timing.starter tmg);
  let payload = encode_payload t p Marshal.In_call_packet args in
  Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_call_packet p args;
  charge_rt ctx ~label:"Transporter (send call pkt)" (Timing.transporter_send tmg);
  (* One call at a time on the session. *)
  Cpu_set.yield_cpu ctx (fun () -> Sim.Resource.acquire b.dn_lock);
  Fun.protect
    ~finally:(fun () -> Sim.Resource.release b.dn_lock)
    (fun () ->
      let conn =
        match b.dn_conn with
        | Some c when Decnet.is_open c -> c
        | Some _ | None ->
          let c = Decnet.connect b.dn_ep ctx ~peer:b.dn_peer ~space:b.dn_space () in
          b.dn_conn <- Some c;
          c
      in
      b.dn_next_call <- b.dn_next_call + 1;
      let call_id = b.dn_next_call in
      (* Only a failed send, receive or reply decode loses the session;
         an error reply is the server's answer on a healthy one. *)
      let fail_transport e =
        b.dn_conn <- None;
        raise e
      in
      (try
         Decnet.send_message conn ctx
           (encode_dn_request ~intf_id:b.dn_id ~proc_idx ~call_id payload)
       with Rpc_error.Rpc (Rpc_error.Call_failed _) as e -> fail_transport e);
      let rec get_reply () =
        match Decnet.recv_message conn ctx ~timeout:(Time.sec 60) with
        | None -> fail_transport (Rpc_error.Rpc (Rpc_error.Call_failed "decnet: session lost"))
        | Some msg -> (
          match decode_dn_reply msg with
          | Error e -> fail_transport (Rpc_error.Rpc (Rpc_error.Protocol_violation e))
          | Ok (id, _, _) when id <> call_id -> get_reply () (* stale reply *)
          | Ok (_, false, err) ->
            Rpc_error.fail (Rpc_error.Call_failed ("server: " ^ V.to_string err))
          | Ok (_, true, result_payload) ->
            charge_rt ctx ~label:"Transporter (receive result pkt)" (Timing.transporter_recv tmg);
            let full =
              Marshal.decode_args (R.of_view result_payload) Marshal.In_result_packet p
            in
            Marshal.charge_args tmg ctx Marshal.Caller_side Marshal.In_result_packet p full;
            charge_rt ctx ~label:"Ender" (Timing.ender tmg);
            Marshal.extract_outs p full)
      in
      get_reply ())

(* {1 Export / call} *)

let export ?auth t intf ~impls ~workers =
  let id = Idl.interface_id intf in
  if Hashtbl.mem t.rt_exports id then
    invalid_arg ("Runtime.export: interface already exported: " ^ intf.Idl.intf_name);
  if Array.length impls <> Array.length intf.Idl.procs then
    invalid_arg "Runtime.export: implementation count mismatch";
  if workers < 1 then invalid_arg "Runtime.export: need at least one worker";
  Hashtbl.replace t.rt_exports id { ex_intf = intf; ex_impls = impls; ex_auth = auth };
  let mach = machine t in
  for i = 1 to workers do
    Machine.spawn_thread mach
      ~name:(Printf.sprintf "%s-worker%d" intf.Idl.intf_name i)
      (fun () -> Cpu_set.with_cpu (Machine.cpus mach) (fun ctx -> worker_loop t ctx))
  done;
  Machine.spawn_thread mach
    ~name:(intf.Idl.intf_name ^ "-local-worker")
    (fun () -> Cpu_set.with_cpu (Machine.cpus mach) (fun ctx -> local_worker_loop t ctx))

let is_exported t intf = Hashtbl.mem t.rt_exports (Idl.interface_id intf)

let call binding client ctx ~proc_idx ~args =
  match binding with
  | Ether b -> call_ether client ctx b ~proc_idx ~args
  | Local b -> call_local client ctx b ~proc_idx ~args
  | Decnet b -> call_decnet client ctx b ~proc_idx ~args

let call_by_name binding client ctx ~proc ~args =
  let intf = binding_interface binding in
  match Idl.find_proc intf proc with
  | idx -> call binding client ctx ~proc_idx:idx ~args
  | exception Not_found ->
    Rpc_error.fail (Rpc_error.Marshal_failure ("no such procedure: " ^ proc))

(* {1 Statistics} *)

let calls_made t = t.c_calls
let set_execution_probe t probe = t.rt_exec_probe <- probe
let calls_served t = t.c_served
let retransmissions t = t.c_retrans
let duplicates_suppressed t = t.c_dups
let busy_replies t = t.c_busy
let server_activities t = Exchange.Server.activities t.rt_server
