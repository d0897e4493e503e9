(* Layer arms: each replays one layer's share of a workload in
   isolation, so the host cost of a simulated call can be split into the
   event engine, the wire kernels and the rest of the model. *)

module Marshal = Rpc.Marshal

(* Repeats [pass] for at least 20 ms of host time and returns the time
   of one pass in ns, median of five such batches. *)
let time_pass pass =
  let batch () =
    let t0 = Common.now () in
    let n = ref 0 in
    while Common.now () -. t0 < 0.02 do
      pass ();
      incr n
    done;
    (Common.now () -. t0) *. 1e9 /. float_of_int !n
  in
  pass ();
  Common.median (List.init 5 (fun _ -> batch ()))

(* {1 Engine arm}

   [depth] interleaved event chains through the public flat API
   ([register_handler] + [schedule_fn]), [events] events in all, with
   delays drawn from a fixed spread so the queue keeps reordering.
   Returns host ns per event and allocated bytes per event. *)
let engine ~queue ~depth ~events =
  let depth = max 1 depth in
  let per_chain = max 1 (events / depth) in
  let eng = Sim.Engine.create ~queue () in
  let delays = Array.init 256 (fun i -> Sim.Time.ns (50 + ((i * 7919) mod 20_000))) in
  let fn_ref = ref (-1) in
  let fn =
    Sim.Engine.register_handler eng (fun remaining k ->
        if remaining > 0 then
          Sim.Engine.schedule_fn eng ~after:delays.(k land 255) ~fn:!fn_ref ~a:(remaining - 1)
            ~b:(k + 1))
  in
  fn_ref := fn;
  let launch n =
    for c = 0 to depth - 1 do
      Sim.Engine.schedule_fn eng ~after:Sim.Time.zero_span ~fn ~a:n ~b:(c * 37)
    done
  in
  launch (min per_chain 256);
  Sim.Engine.run eng;
  let once () =
    let e0 = Sim.Engine.events_executed eng in
    launch per_chain;
    let a0 = Gc.allocated_bytes () in
    let t0 = Common.now () in
    Sim.Engine.run eng;
    let dt = Common.now () -. t0 in
    let alloc = Gc.allocated_bytes () -. a0 in
    let ev = float_of_int (Sim.Engine.events_executed eng - e0) in
    (dt *. 1e9 /. ev, alloc /. ev)
  in
  let runs = List.init 5 (fun _ -> once ()) in
  (Common.median (List.map fst runs), Common.median (List.map snd runs))

(* {1 Kernel arm}

   The wire kernels replayed over a workload's own frames and argument
   shapes: every frame is re-parsed with [Rpc.Frames.parse] and rebuilt
   from its parsed header and payload with [Rpc.Frames.build]; every
   call's arguments and results are encoded and decoded with
   [Rpc.Marshal].  The UDP checksum runs inside build and parse; its
   share is timed separately (one pass to compute, one to verify) and
   is not added to the kernel total. *)

type shape = { proc : Rpc.Idl.proc; call_args : Marshal.value list; result_args : Marshal.value list }

type kernel_input = {
  frames : Bytes.t list;  (** frames of [frame_calls] calls, each sent once and received once *)
  frame_calls : int;
  shapes : shape list;  (** one entry per call, in the workload's mix *)
}

type kernel_result = {
  checksum_ns : float;
  build_ns : float;
  parse_ns : float;
  marshal_ns : float;
  alloc_bytes : float;  (** per call, build + parse + marshal *)
}

let timing = Hw.Timing.create Hw.Config.default

let dst_of frame =
  let mac = Net.Mac.read (Wire.Bytebuf.Reader.of_bytes frame) in
  { Rpc.Frames.mac; ip = Net.Ipv4.Addr.of_int32 (Bytes.get_int32_be frame 30) }

let prepare frame =
  match Rpc.Frames.parse timing frame with
  | Error e -> failwith ("kernel arm: captured frame does not parse: " ^ e)
  | Ok p ->
    let payload = Wire.Bytebuf.View.to_bytes p.Rpc.Frames.p_payload in
    (p.Rpc.Frames.p_src, dst_of frame, p.Rpc.Frames.p_hdr, payload)

(* Encoding goes through one reused scratch buffer, as the runtime's
   [encode_payload] does, then is copied out and decoded. *)
let scratch = Bytes.create 8192

let marshal_once shape =
  let round dir values =
    let w = Wire.Bytebuf.Writer.over scratch ~pos:0 in
    Marshal.encode_args w dir shape.proc values;
    ignore
      (Marshal.decode_args (Wire.Bytebuf.Reader.of_bytes (Wire.Bytebuf.Writer.contents w)) dir shape.proc)
  in
  round Marshal.In_call_packet shape.call_args;
  round Marshal.In_result_packet shape.result_args

let kernels input =
  let frames = Array.of_list input.frames in
  let prepared = Array.map prepare frames in
  let shapes = Array.of_list input.shapes in
  let per_call_frames ns = ns /. float_of_int (max 1 input.frame_calls) in
  let per_call_shapes ns = ns /. float_of_int (max 1 (Array.length shapes)) in
  let checksum () =
    Array.iter
      (fun f ->
        let len = Bytes.length f - 34 in
        ignore (Sys.opaque_identity (Wire.Checksum.checksum f ~pos:34 ~len));
        ignore (Sys.opaque_identity (Wire.Checksum.verify f ~pos:34 ~len)))
      frames
  in
  let build () =
    Array.iter
      (fun (src, dst, hdr, payload) ->
        ignore
          (Sys.opaque_identity
             (Rpc.Frames.build timing ~src ~dst ~hdr ~payload ~payload_pos:0
                ~payload_len:(Bytes.length payload))))
      prepared
  in
  let parse () = Array.iter (fun f -> ignore (Sys.opaque_identity (Rpc.Frames.parse timing f))) frames in
  let marshal () = Array.iter marshal_once shapes in
  let alloc_of pass =
    let a0 = Gc.allocated_bytes () in
    pass ();
    Gc.allocated_bytes () -. a0
  in
  let checksum_ns = per_call_frames (time_pass checksum) in
  let build_ns = per_call_frames (time_pass build) in
  let parse_ns = per_call_frames (time_pass parse) in
  let marshal_ns = per_call_shapes (time_pass marshal) in
  let alloc_bytes =
    per_call_frames (alloc_of build +. alloc_of parse) +. per_call_shapes (alloc_of marshal)
  in
  { checksum_ns; build_ns; parse_ns; marshal_ns; alloc_bytes }

let kernel_ns_per_call k = k.build_ns +. k.parse_ns +. k.marshal_ns
