module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine

type proc = Null | Max_result | Max_arg | Get_data of int

type outcome = {
  threads : int;
  calls : int;
  failed : int;
  elapsed : Time.span;
  rpcs_per_sec : float;
  megabits_per_sec : float;
  caller_busy_cpus : float;
  server_busy_cpus : float;
  retransmissions : int;
  mean_latency : Time.span;
  latencies : Time.span array;
  sorted_latencies : Time.span array;
}

let percentile o p =
  if Array.length o.latencies = 0 then invalid_arg "Driver.percentile: no samples";
  (* Nearest-rank definition — the smallest sample whose cumulative
     count reaches p*n — matching what [Obs.Metrics.Histogram.percentile]
     computes on its buckets, so the two views of one latency population
     agree. *)
  Sim.Stats.percentile o.sorted_latencies p

let payload_bytes = function
  | Null -> 0
  | Max_result | Max_arg -> Test_interface.buffer_bytes
  | Get_data n -> n

let proc_idx = function
  | Null -> Test_interface.null_idx
  | Max_result -> Test_interface.max_result_idx
  | Max_arg -> Test_interface.max_arg_idx
  | Get_data _ -> Test_interface.get_data_idx

(* MaxArg sends [Test_interface]'s one prebuilt pattern: the marshaller
   copies it into the call packet, so nothing here builds one per call. *)
let max_arg_args = [ Rpc.Marshal.V_bytes Test_interface.max_arg_pattern ]

let args_of = function
  | Null -> []
  | Max_result -> [ Rpc.Marshal.V_bytes Bytes.empty ]
  | Max_arg -> max_arg_args
  | Get_data n -> [ Rpc.Marshal.V_int (Int32.of_int n); Rpc.Marshal.V_bytes Bytes.empty ]

let result_ok proc outs =
  match proc, outs with
  | (Null | Max_arg), [] -> true
  | Max_result, [ Rpc.Marshal.V_bytes b ] -> Bytes.length b = Test_interface.buffer_bytes
  | Get_data n, [ Rpc.Marshal.V_bytes b ] -> Bytes.equal b (Test_interface.payload n)
  | _ -> false

(* A call that ends in an RPC error counts as failed, and its caller
   goes on to the next call; a wrong result is a correctness failure
   and ends the run. *)
let caller_thread (w : World.t) binding proc remaining gate finished samples failed
    ~total_threads () =
  let mach = w.World.caller in
  let eng = w.World.eng in
  let timing = Machine.timing mach in
  Cpu_set.with_cpu (Machine.cpus mach) (fun ctx ->
      let client = Rpc.Runtime.new_client w.World.caller_rt in
      let continue_ = ref true in
      while !continue_ do
        if !remaining > 0 then begin
          decr remaining;
          Cpu_set.charge ctx ~cat:"runtime" ~label:"Calling program (loop)"
            (Hw.Timing.caller_loop timing);
          let t0 = Engine.now eng in
          match
            Rpc.Runtime.call binding client ctx ~proc_idx:(proc_idx proc) ~args:(args_of proc)
          with
          | outs ->
            samples := Time.diff (Engine.now eng) t0 :: !samples;
            if not (result_ok proc outs) then failwith "Driver: wrong result"
          | exception Rpc.Rpc_error.Rpc _ -> incr failed
        end
        else continue_ := false
      done);
  incr finished;
  if !finished = total_threads then Sim.Gate.open_ gate

let run (w : World.t) ?options ?transport ~threads ~calls ~proc () =
  if threads < 1 then invalid_arg "Driver.run: threads must be >= 1";
  let binding = World.test_binding w ?options ?transport () in
  let gate = Sim.Gate.create w.World.eng in
  let remaining = ref calls in
  let finished = ref 0 in
  let samples = ref [] and failed = ref 0 in
  let started_at = Engine.now w.World.eng in
  for _ = 1 to threads do
    Machine.spawn_thread w.World.caller ~name:"rpc-caller"
      (caller_thread w binding proc remaining gate finished samples failed
         ~total_threads:threads)
  done;
  World.run_until_quiet w gate;
  let finished_at = Engine.now w.World.eng in
  let elapsed = Time.diff finished_at started_at in
  let secs = Time.to_sec elapsed in
  let completed = calls - !failed in
  let bits = float_of_int (completed * payload_bytes proc * 8) in
  let latencies = Array.of_list (List.rev !samples) in
  let sorted_latencies = Array.copy latencies in
  Array.sort Time.span_compare sorted_latencies;
  let hist =
    Obs.Metrics.Registry.histogram w.World.obs.Obs.Ctx.metrics ~site:"caller"
      ~name:"rpc.latency_us"
  in
  Array.iter (Obs.Metrics.Histogram.observe_span hist) latencies;
  {
    threads;
    calls;
    failed = !failed;
    elapsed;
    rpcs_per_sec = (if secs > 0. then float_of_int completed /. secs else 0.);
    megabits_per_sec = (if secs > 0. then bits /. secs /. 1e6 else 0.);
    caller_busy_cpus = Machine.average_busy_cpus w.World.caller ~upto:finished_at;
    server_busy_cpus = Machine.average_busy_cpus w.World.server ~upto:finished_at;
    retransmissions = Rpc.Runtime.retransmissions w.World.caller_rt;
    mean_latency =
      (if completed > 0 then
         Time.us_f (Time.to_us elapsed *. float_of_int threads /. float_of_int completed)
       else Time.zero_span);
    latencies;
    sorted_latencies;
  }

(* One caller thread warms the path, opens a fresh trace and journal
   window, then shares the timed calls with [threads - 1] more callers.
   The i-th timed call to start is trace call id i: the allocator
   restarts at the [Sim.Trace.clear], and [Rpc.Runtime.call] takes its
   id before it first yields. *)
let run_traced (w : World.t) ?(threads = 1) ~calls ~proc () =
  if threads < 1 then invalid_arg "Driver.run_traced: threads must be >= 1";
  let binding = World.test_binding w () in
  let eng = w.World.eng in
  let tr = Engine.trace eng in
  let gate = Sim.Gate.create eng in
  let next = ref 0 and running = ref threads and windows = ref [] in
  let call client ctx =
    ignore (Rpc.Runtime.call binding client ctx ~proc_idx:(proc_idx proc) ~args:(args_of proc))
  in
  let timed client ctx =
    while !next < calls do
      let i = !next in
      incr next;
      let t0 = Engine.now eng in
      call client ctx;
      windows := { Obs.Attrib.w_call = i; w_start = t0; w_stop = Engine.now eng } :: !windows
    done;
    decr running;
    if !running = 0 then Sim.Trace.set_enabled tr false
  in
  let caller body =
    Machine.spawn_thread w.World.caller ~name:"traced-call" (fun () ->
        Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
            body (Rpc.Runtime.new_client w.World.caller_rt) ctx);
        if !running = 0 then Sim.Gate.open_ gate)
  in
  caller (fun client ctx ->
      (* Warm the path: binding established, server threads parked. *)
      call client ctx;
      call client ctx;
      Obs.Journal.clear w.World.obs.Obs.Ctx.journal;
      Sim.Trace.clear tr;
      Sim.Trace.set_enabled tr true;
      for _ = 2 to threads do
        caller timed
      done;
      timed client ctx);
  World.run_until_quiet w gate;
  List.sort (fun a b -> compare a.Obs.Attrib.w_call b.Obs.Attrib.w_call) !windows

let measure_single_call (w : World.t) ?transport ~proc () =
  let binding = World.test_binding w ?transport () in
  let gate = Sim.Gate.create w.World.eng in
  let latency = ref Time.zero_span in
  Machine.spawn_thread w.World.caller ~name:"single-call" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
          let client = Rpc.Runtime.new_client w.World.caller_rt in
          let once () =
            ignore (Rpc.Runtime.call binding client ctx ~proc_idx:(proc_idx proc) ~args:(args_of proc))
          in
          (* Warm the path: binding established, server threads parked. *)
          once ();
          once ();
          let t0 = Engine.now w.World.eng in
          once ();
          latency := Time.diff (Engine.now w.World.eng) t0);
      Sim.Gate.open_ gate);
  World.run_until_quiet w gate;
  !latency
