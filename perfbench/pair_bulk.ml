(* pair-bulk: the paper's two-Firefly world with its defaults; two
   caller threads call GetData(6000) — five-fragment results in
   1514-byte frames.  A fresh world per sample of 100 calls, as the
   paper's Table I runs do. *)

module W = Workload.World
module Ti = Workload.Test_interface
module Engine = Sim.Engine
module Machine = Nub.Machine
module Marshal = Rpc.Marshal

let payload = 6000
let calls_per_sample = 100
let threads = 2
let warmup_calls = 10
let expected = Ti.pattern payload
let args = [ Marshal.V_int (Int32.of_int payload); Marshal.V_bytes Bytes.empty ]

(* One world, [calls] calls shared by the caller threads — the loop of
   [Workload.Driver.run], but every result is checked against the
   GetData pattern and every call is timed in host time. *)
let run_world ?tap ~seed ~calls ~traced () =
  let t0 = Common.now () in
  let w = W.create ~seed () in
  let eng = w.W.eng in
  let tr = Engine.trace eng in
  if traced then Sim.Trace.set_enabled tr true;
  Option.iter
    (fun f ->
      Hw.Ether_link.set_fault_injector w.W.link
        (Some
           (fun frame ->
             f frame;
             Hw.Ether_link.Deliver)))
    tap;
  let binding = W.test_binding w () in
  let gate = Sim.Gate.create eng in
  let remaining = ref calls and finished = ref 0 and failed = ref 0 in
  let lats = ref [] and sim_lats = ref [] in
  let timing = Machine.timing w.W.caller in
  for _ = 1 to threads do
    Machine.spawn_thread w.W.caller ~name:"bench-caller" (fun () ->
        Hw.Cpu_set.with_cpu (Machine.cpus w.W.caller) (fun ctx ->
            let client = Rpc.Runtime.new_client w.W.caller_rt in
            while !remaining > 0 do
              decr remaining;
              Hw.Cpu_set.charge ctx ~cat:"runtime" ~label:"Calling program (loop)"
                (Hw.Timing.caller_loop timing);
              let v0 = Engine.now eng and h0 = Common.now () in
              (match Rpc.Runtime.call binding client ctx ~proc_idx:Ti.get_data_idx ~args with
              | [ Marshal.V_bytes b ] when Bytes.equal b expected -> ()
              | _ -> incr failed
              | exception Rpc.Rpc_error.Rpc _ -> incr failed);
              lats := (0, (Common.now () -. h0) *. 1e6) :: !lats;
              sim_lats := Sim.Time.to_us (Sim.Time.diff (Engine.now eng) v0) :: !sim_lats
            done);
        incr finished;
        if !finished = threads then Sim.Gate.open_ gate)
  done;
  let started_at = Engine.now eng in
  (try W.run_until_quiet w gate with Failure _ -> ());
  Sim.Trace.set_enabled tr false;
  let wall = Common.now () -. t0 in
  (* Calls that never returned count as failed. *)
  let returned = List.length !lats in
  let failed = !failed + (calls - returned) in
  let at = Engine.now eng in
  let snap = Obs.Metrics.Snapshot.take w.W.obs.Obs.Ctx.metrics ~at in
  let rts = [ w.W.caller_rt; w.W.server_rt ] in
  let rt_sum f = float_of_int (List.fold_left (fun acc rt -> acc + f rt) 0 rts) in
  let retrans = rt_sum Rpc.Runtime.retransmissions in
  let sim_sorted = Array.of_list !sim_lats in
  Array.sort Float.compare sim_sorted;
  let digest =
    Printf.sprintf "elapsed=%.3f events=%d p50=%.3f p99=%.3f retrans=%.0f"
      (Sim.Time.to_us (Sim.Time.diff at started_at))
      (Engine.events_executed eng)
      (Common.percentile sim_sorted 0.5)
      (Common.percentile sim_sorted 0.99)
      retrans
  in
  {
    Common.s_calls = calls;
    s_failed = failed;
    s_wall = wall;
    s_lat_us = !lats;
    s_events = Engine.events_executed eng;
    s_counts =
      Common.model_counts snap
      @ [
          ("wire_bytes", float_of_int (Hw.Ether_link.bytes_carried w.W.link));
          ( "server_cpu0_util_x_calls",
            Hw.Cpu_set.cpu0_utilization (Machine.cpus w.W.server) ~upto:at *. float_of_int calls );
          ("retransmissions", retrans);
          ("duplicates", rt_sum Rpc.Runtime.duplicates_suppressed);
          ("busy_rejects", rt_sum Rpc.Runtime.busy_replies);
          ("trace.frame_evictions", float_of_int (Sim.Trace.frame_evictions tr));
          ("trace.dropped", float_of_int (Sim.Trace.dropped tr));
          ("journal.dropped", float_of_int (Obs.Journal.dropped w.W.obs.Obs.Ctx.journal));
        ];
    s_digest = digest;
    s_spans = lazy (Sim.Trace.spans tr);
  }

let shape =
  {
    Arms.proc = Ti.interface.Rpc.Idl.procs.(Ti.get_data_idx);
    call_args = args;
    result_args = [ Marshal.V_int (Int32.of_int payload); Marshal.V_bytes expected ];
  }

let create ~seed =
  {
    Harness.classes = [| "getdata" |];
    setup =
      (fun () ->
        ignore (run_world ~seed:(Common.derive_seed seed (-1)) ~calls:warmup_calls ~traced:false ()));
    sample =
      (fun ~traced k ->
        run_world ~seed:(Common.derive_seed seed k) ~calls:calls_per_sample ~traced ());
    kernel_input =
      (fun () ->
        (* A pure tap on the link: every frame of one sample, copied as
           it goes on the wire and delivered unchanged. *)
        let frames = ref [] in
        let s =
          run_world
            ~tap:(fun f -> frames := Bytes.copy f :: !frames)
            ~seed:(Common.derive_seed seed 0) ~calls:calls_per_sample ~traced:false ()
        in
        { Arms.frames = List.rev !frames; frame_calls = s.Common.s_calls; shapes = [ shape ] });
    teardown = ignore;
  }
