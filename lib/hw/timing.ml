type t = { cfg : Config.t }

let create cfg = { cfg }
let config t = t.cfg

(* Software microseconds, scaled by CPU speed. *)
let sw t us = Sim.Time.us_f (us /. t.cfg.Config.cpu_speedup)

(* {1 Table VI} *)

let finish_udp_header t =
  let base = if t.cfg.Config.raw_ethernet then 25. else 59. in
  let base = if t.cfg.Config.redesigned_header then base -. 30. else base in
  sw t (Float.max 0. base)

let udp_checksum t ~bytes =
  if not t.cfg.Config.udp_checksums then Sim.Time.zero_span
  else sw t (24.7 +. (0.2743 *. float_of_int bytes))

let trap_to_nub t = sw t 37.
let queue_packet t = sw t 39.
let ipi_latency _ = Sim.Time.us 10
let ipi_handler t = sw t 76.
let activate_controller t = sw t 22.

let qbus_transmit _ ~bytes = Sim.Time.us_f (31.7 +. (0.5174 *. float_of_int bytes))
let qbus_receive _ ~bytes = Sim.Time.us_f (41.4 +. (0.5243 *. float_of_int bytes))

let io_interrupt t = sw t 14.

let rx_demux t =
  let base =
    match t.cfg.Config.interrupt_code with
    | Config.Assembly -> 177.
    | Config.Final_modula2 -> 547.
    | Config.Original_modula2 -> 758.
  in
  let base = if t.cfg.Config.redesigned_header then base -. 70. else base in
  sw t (Float.max 0. base)

let traditional_interrupt t = sw t 40.
let wakeup t = if t.cfg.Config.busy_wait then sw t 10. else sw t 220.
let interrupt_epilogue t = sw t 400.

(* {1 Table VII} *)

let runtime t us = if t.cfg.Config.hand_runtime then sw t (us /. 3.) else sw t us

let caller_loop t = sw t 16.

(* The Exerciser's hand-produced stubs make Null() 140 us faster than
   the generated ones (§5); the whole saving is carried in the two stub
   constants: (90 - 10) + (68 - 8) = 140. *)
let calling_stub t = if t.cfg.Config.hand_stubs then sw t 10. else sw t 90.
let starter t = runtime t 128.
let transporter_send t = runtime t 27.
let receiver_recv t = runtime t 158.
let server_stub t = if t.cfg.Config.hand_stubs then sw t 8. else sw t 68.
let receiver_send t = runtime t 27.
let transporter_recv t = runtime t 49.
let ender t = runtime t 33.
let unattributed_per_packet t = sw t 65.5
let register_call t = sw t 30.

(* {1 Tables II-V} *)

let marshalling t us = if t.cfg.Config.hand_stubs then Sim.Time.zero_span else sw t us

let marshal_int_caller t = marshalling t 4.
let marshal_int_server t = marshalling t 4.

let marshal_fixed_array t ~bytes = marshalling t (18.8 +. (0.3030 *. float_of_int bytes))
let marshal_var_array t ~bytes = marshalling t (114.7 +. (0.3024 *. float_of_int bytes))
let marshal_text_nil t = marshalling t 89.

let text_cost bytes = 375.8 +. (2.213 *. float_of_int bytes)

let marshal_text_caller t ~bytes = marshalling t (0.35 *. text_cost bytes)
let marshal_text_server t ~bytes = marshalling t (0.65 *. text_cost bytes)

(* {1 Local transport}

   937 us for a local Null() decomposes as: loop 16 + calling stub 90 +
   server stub 68 + Null body 10 (all shared with the Ethernet path),
   plus the local runtime below (283), two wakeups (440) and two
   dispatches (30): 16+90+68+10+283+440+30 = 937. *)

let local_starter t = runtime t 70.
let local_transporter_send t = runtime t 35.
let local_receiver t = runtime t 80.
let local_receiver_send t = runtime t 35.
let local_transporter_recv t = runtime t 35.
let local_ender t = runtime t 28.

(* {1 Uniprocessor penalties (calibrated against Table X)} *)

let on_uniproc t us = if t.cfg.Config.cpus = 1 then sw t us else Sim.Time.zero_span

(* Most of the uniprocessor slowdown emerges naturally in the simulator
   (interrupt epilogues and overlapped work serializing onto the single
   CPU); these residual constants close the gap to Table X's measured
   3.96 ms (1x5) and 4.81 ms (1x1) Exerciser Null(). *)
let uniproc_interrupt_entry t = on_uniproc t 10.
let uniproc_wakeup_extra t = on_uniproc t 30.
let uniproc_caller_send_extra t = on_uniproc t 700.

(* On a uniprocessor the fast path "is not followed exactly": received
   packets take a longer, copying path through the scheduler (§5).
   The per-byte term reproduces Table XI's size-dependent gap between
   uniprocessor Null() and MaxResult() costs. *)
let uniproc_rx_extra t ~bytes = on_uniproc t (100. +. (0.45 *. float_of_int bytes))

let multiproc_fix_cost t =
  if t.cfg.Config.uniproc_fix && t.cfg.Config.cpus > 1 then sw t 100. else Sim.Time.zero_span

let uniproc_bug_loss_probability t =
  if t.cfg.Config.cpus = 1 && not t.cfg.Config.uniproc_fix then 0.014 else 0.

(* {1 Miscellaneous} *)

let dispatch t = sw t 15.
let busy_wait_poll t = sw t 5.
let cut_through_setup _ = Sim.Time.us 10
let deqna_tx_recovery _ = Sim.Time.us 200
let deqna_rx_recovery _ ~bytes = ignore bytes; Sim.Time.us 100
(* Chosen so the minimum RPC frame is the paper's 74 bytes. *)
let rpc_header_bytes = 32

let frame_overhead_bytes t =
  if t.cfg.Config.raw_ethernet then Net.Ethernet.header_size + rpc_header_bytes
  else Net.Ethernet.header_size + Net.Ipv4.header_size + Net.Udp.header_size + rpc_header_bytes

let max_payload_bytes t = Net.Ethernet.max_frame_size - frame_overhead_bytes t
