module Time = Sim.Time
module Config = Hw.Config
module Driver = Workload.Driver

type bug_row = { variant : string; mean_null_ms : float; retransmissions : int }

let uniproc_bug ?(calls = 1200) () =
  let run ~fix =
    let cfg = { Config.default with cpus = 1; uniproc_fix = fix; hand_stubs = true } in
    let o = Exp_common.throughput ~caller_config:cfg ~server_config:cfg ~threads:1 ~calls ~proc:Driver.Null () in
    {
      variant = (if fix then "with swapped-lines fix" else "without fix (the bug)");
      mean_null_ms = Time.to_ms o.Driver.mean_latency;
      retransmissions = o.Driver.retransmissions;
    }
  in
  [ run ~fix:false; run ~fix:true ]

type streaming_row = { strategy : string; mbps : float; wakeups_per_kb : float }

let streaming ?(calls = 250) () =
  let uni ~streaming_results =
    { (Exp_common.exerciser ~cpus:1) with Config.streaming_results }
  in
  let threads_run =
    Exp_common.throughput ~caller_config:(uni ~streaming_results:false)
      ~server_config:(uni ~streaming_results:false) ~threads:4 ~calls:(4 * calls)
      ~proc:Driver.Max_result ()
  in
  let bulk ~streaming_results =
    let cfg = uni ~streaming_results in
    (* Each call moves 20 KB (14 fragments). *)
    Exp_common.throughput ~caller_config:cfg ~server_config:cfg ~threads:1
      ~calls:(max 20 (calls / 10))
      ~proc:(Driver.Get_data 20_000) ()
  in
  let stop_and_wait = bulk ~streaming_results:false in
  let blast = bulk ~streaming_results:true in
  (* Wakeups per KB transferred: thread-parallel RPC pays two scheduler
     wakeups per 1.44 KB call; a 20 KB stop-and-wait transfer wakes a
     thread per fragment and per fragment ack; streaming wakes the
     caller once per arriving fragment only. *)
  let wakeups_per_kb ~per_call_wakeups ~kb_per_call =
    float_of_int per_call_wakeups /. kb_per_call
  in
  [
    {
      strategy = "4 threads x MaxResult (paper's approach)";
      mbps = threads_run.Driver.megabits_per_sec;
      wakeups_per_kb = wakeups_per_kb ~per_call_wakeups:2 ~kb_per_call:1.44;
    };
    {
      strategy = "1 thread x GetData(20KB), stop-and-wait fragments";
      mbps = stop_and_wait.Driver.megabits_per_sec;
      wakeups_per_kb = wakeups_per_kb ~per_call_wakeups:30 ~kb_per_call:20.;
    };
    {
      strategy = "1 thread x GetData(20KB), streamed fragments";
      mbps = blast.Driver.megabits_per_sec;
      wakeups_per_kb = wakeups_per_kb ~per_call_wakeups:16 ~kb_per_call:20.;
    };
  ]

let uniproc_bug_table ~quick =
  Report.Table.make ~id:"uniproc-bug" ~title:"Section 5: the uniprocessor lost-packet bug"
    ~columns:[ "variant"; "mean Null() ms"; "retransmissions" ]
    ~notes:
      [
        "paper: without the fix, uniprocessor Null() averaged ~20 ms from ~600 ms retransmission stalls";
        "with the fix: 4.81 ms (Table X)";
      ]
    (List.map
       (fun r -> [ r.variant; Report.Table.cell_f r.mean_null_ms; string_of_int r.retransmissions ])
       (uniproc_bug ~calls:(if quick then 60 else 1200) ()))

let streaming_table ~quick =
  Report.Table.make ~id:"streaming"
    ~title:"Section 5 extension: streamed bulk transfer on uniprocessors"
    ~columns:[ "strategy"; "Mbit/s"; "approx wakeups/KB" ]
    ~notes:
      [
        "the paper speculates a streaming design (Amoeba, V, Sprite) would beat thread-parallel RPC on a uniprocessor because it needs fewer context switches";
      ]
    (List.map
       (fun r ->
         [ r.strategy; Report.Table.cell_f ~decimals:1 r.mbps; Report.Table.cell_f r.wakeups_per_kb ])
       (streaming ~calls:(if quick then 60 else 250) ()))
