(* Reproduction regression tests: every experiment must run, and the
   headline values must stay inside calibrated bands around the paper's
   numbers.  Bands are deliberately generous where the runs use reduced
   call counts; the single-call and cost-model checks are tight. *)

module Time = Sim.Time

let within name ~paper ~tolerance measured =
  let delta = Float.abs (measured -. paper) /. paper in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.3g within %.0f%% of %.3g" name measured (tolerance *. 100.) paper)
    true (delta <= tolerance)

(* {1 Table I} *)

let test_table1_shape () =
  let rows = Experiments.Table1.run ~calls:1500 () in
  let row n = List.nth rows (n - 1) in
  within "1-thread Null secs" ~paper:26.61 ~tolerance:0.08 (row 1).Experiments.Table1.null_seconds;
  within "1-thread MaxResult Mbit/s" ~paper:1.82 ~tolerance:0.10
    (row 1).Experiments.Table1.maxr_mbps;
  within "7-thread Null RPC/s" ~paper:741. ~tolerance:0.15 (row 7).Experiments.Table1.null_rps;
  within "4-thread MaxResult Mbit/s" ~paper:4.65 ~tolerance:0.10
    (row 4).Experiments.Table1.maxr_mbps;
  (* Monotone saturation shape. *)
  Alcotest.(check bool) "Null rate grows 1->4 threads" true
    ((row 4).Experiments.Table1.null_rps > (row 1).Experiments.Table1.null_rps *. 1.4);
  Alcotest.(check bool) "MaxResult saturates (4 ~= 8 threads)" true
    (Float.abs ((row 8).Experiments.Table1.maxr_mbps -. (row 4).Experiments.Table1.maxr_mbps)
    < 0.6)

let test_cpu_utilization () =
  let note = Experiments.Table1.cpu_utilization_note ~calls:1200 () in
  Alcotest.(check bool) "utilization note mentions caller" true
    (String.length note > 0
    &&
    let has_sub s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    has_sub note "caller")

(* {1 Tables II-V} *)

let check_rows name rows ~tolerance =
  List.iter
    (fun r ->
      within
        (name ^ " " ^ r.Experiments.Marshalling.label)
        ~paper:r.Experiments.Marshalling.paper_us ~tolerance
        r.Experiments.Marshalling.measured_us)
    rows

let test_marshalling () =
  let sweep = Experiments.Marshalling.measure () in
  check_rows "table2" (Experiments.Marshalling.table2 sweep) ~tolerance:0.05;
  check_rows "table3" (Experiments.Marshalling.table3 sweep) ~tolerance:0.05;
  check_rows "table4" (Experiments.Marshalling.table4 sweep) ~tolerance:0.05;
  check_rows "table5" (Experiments.Marshalling.table5 sweep) ~tolerance:0.05

let test_marshalling_missing_scenario () =
  (* A sweep/table mismatch must fail with the scenario's name, not a
     bare Not_found. *)
  match Experiments.Marshalling.(increment (measure ()) "no-such-scenario") with
  | _ -> Alcotest.fail "expected Invalid_argument for an unmeasured scenario"
  | exception Invalid_argument msg ->
    let has_sub s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error names the scenario: %s" msg)
      true
      (has_sub msg "no-such-scenario");
    Alcotest.(check bool) "error lists the measured scenarios" true (has_sub msg "null")

(* {1 Tables VI-VIII} *)

let test_table6 () =
  let steps = Experiments.Breakdown.table6 () in
  Alcotest.(check int) "14 steps" 14 (List.length steps);
  List.iter
    (fun s ->
      within
        ("74B " ^ s.Experiments.Breakdown.step_label)
        ~paper:s.Experiments.Breakdown.paper_small_us ~tolerance:0.05
        s.Experiments.Breakdown.measured_small_us;
      match s.Experiments.Breakdown.paper_large_us with
      | Some paper ->
        within
          ("1514B " ^ s.Experiments.Breakdown.step_label)
          ~paper ~tolerance:0.05 s.Experiments.Breakdown.measured_large_us
      | None -> ())
    steps

let test_table7 () =
  let steps = Experiments.Breakdown.table7 () in
  List.iter
    (fun s ->
      within s.Experiments.Breakdown.rt_label ~paper:s.Experiments.Breakdown.rt_paper_us
        ~tolerance:0.05 s.Experiments.Breakdown.rt_measured_us)
    steps;
  let total = List.fold_left (fun a s -> a +. s.Experiments.Breakdown.rt_measured_us) 0. steps in
  within "Table VII total" ~paper:606. ~tolerance:0.03 total

let test_table8 () =
  match Experiments.Breakdown.table8 () with
  | [ null_acct; maxr_acct ] ->
    within "Null measured latency" ~paper:2645. ~tolerance:0.05
      null_acct.Experiments.Breakdown.measured_elapsed_us;
    within "MaxResult measured latency" ~paper:6347. ~tolerance:0.06
      maxr_acct.Experiments.Breakdown.measured_elapsed_us;
    (* Calculation accounts for the measurement to within several
       percent — the paper's own Null gap is 5% (2514 calculated vs
       2645 measured); ours is the same structural gap plus the timed
       caller loop. *)
    within "Null calc vs elapsed" ~paper:null_acct.Experiments.Breakdown.measured_elapsed_us
      ~tolerance:0.08 null_acct.Experiments.Breakdown.measured_calc_us;
    within "MaxResult calc vs elapsed"
      ~paper:maxr_acct.Experiments.Breakdown.measured_elapsed_us ~tolerance:0.06
      maxr_acct.Experiments.Breakdown.measured_calc_us
  | _ -> Alcotest.fail "expected two accounting rows"

(* {1 Table IX} *)

let test_table9 () =
  let rows = Experiments.Table9.run () in
  Alcotest.(check int) "three versions" 3 (List.length rows);
  List.iter
    (fun r ->
      within
        ("interrupt " ^ r.Experiments.Table9.version)
        ~paper:r.Experiments.Table9.paper_us ~tolerance:0.02 r.Experiments.Table9.measured_us)
    rows;
  (* Assembly beats original Modula-2+ by ~1.16 ms of Null latency. *)
  let lat v =
    (List.find (fun r -> r.Experiments.Table9.version = v) rows).Experiments.Table9.null_latency_us
  in
  within "Modula-2+ latency penalty" ~paper:1162. ~tolerance:0.15
    (lat "Original Modula-2+" -. lat "Assembly language")

(* {1 Tables X and XI} *)

let test_table10 () =
  let rows = Experiments.Processors.table10 ~calls:400 () in
  (* The simulator does not reproduce the paper's gentle creep at 2-4
     processors (likely real-machine memory/scheduler contention), so
     intermediate rows get a wider band; the anchor rows are tight. *)
  List.iter
    (fun r ->
      let key =
        (r.Experiments.Processors.caller_cpus, r.Experiments.Processors.server_cpus)
      in
      let tolerance = if List.mem key [ (5, 5); (1, 5); (1, 1) ] then 0.10 else 0.15 in
      within
        (Printf.sprintf "Null %dx%d" (fst key) (snd key))
        ~paper:r.Experiments.Processors.paper_sec_per_1000 ~tolerance
        r.Experiments.Processors.measured_sec_per_1000)
    rows;
  (* And the headline: a uniprocessor pair is ~75% slower than 5x5. *)
  let get c s =
    (List.find
       (fun r ->
         r.Experiments.Processors.caller_cpus = c && r.Experiments.Processors.server_cpus = s)
       rows)
      .Experiments.Processors.measured_sec_per_1000
  in
  within "uniprocessor slowdown factor" ~paper:1.79 ~tolerance:0.10 (get 1 1 /. get 5 5)

let test_table11 () =
  let rows = Experiments.Processors.table11 ~calls_per_thread:300 () in
  (* Check the saturated points of each configuration. *)
  let sat c s =
    let r =
      List.find
        (fun r ->
          r.Experiments.Processors.t_caller_cpus = c
          && r.Experiments.Processors.t_server_cpus = s
          && r.Experiments.Processors.t_threads = 5)
        rows
    in
    r.Experiments.Processors.measured_mbps
  in
  within "5x5 saturation" ~paper:4.7 ~tolerance:0.10 (sat 5 5);
  within "1x5 saturation" ~paper:2.7 ~tolerance:0.25 (sat 1 5);
  within "1x1 saturation" ~paper:2.5 ~tolerance:0.30 (sat 1 1);
  Alcotest.(check bool) "uniprocessor roughly half of multiprocessor" true
    (sat 1 1 < 0.75 *. sat 5 5)

(* {1 Table XII} *)

let test_table12 () =
  let rows = Experiments.Table12.run ~quick:true () in
  Alcotest.(check int) "7 rows" 7 (List.length rows);
  let firefly = List.filter (fun r -> r.Experiments.Table12.measured) rows in
  Alcotest.(check int) "two measured rows" 2 (List.length firefly);
  match firefly with
  | [ uni; multi ] ->
    within "uniprocessor latency ms" ~paper:4.8 ~tolerance:0.10 uni.Experiments.Table12.latency_ms;
    within "multiprocessor latency ms" ~paper:2.7 ~tolerance:0.10
      multi.Experiments.Table12.latency_ms;
    within "multiprocessor throughput" ~paper:4.6 ~tolerance:0.10
      multi.Experiments.Table12.throughput_mbps
  | _ -> Alcotest.fail "expected uni and multi rows"

(* {1 Improvements (§4.2)} *)

let test_improvements () =
  let rows = Experiments.Improvements.run () in
  Alcotest.(check int) "8 changes" 8 (List.length rows);
  let find prefix =
    List.find
      (fun r ->
        String.length r.Experiments.Improvements.change >= String.length prefix
        && String.sub r.Experiments.Improvements.change 0 (String.length prefix) = prefix)
      rows
  in
  let check prefix ~null_tol ~maxr_tol =
    let r = find prefix in
    within (prefix ^ " Null saving") ~paper:r.Experiments.Improvements.paper_null_saving_us
      ~tolerance:null_tol r.Experiments.Improvements.sim_null_saving_us;
    within (prefix ^ " MaxResult saving") ~paper:r.Experiments.Improvements.paper_maxr_saving_us
      ~tolerance:maxr_tol r.Experiments.Improvements.sim_maxr_saving_us
  in
  check "4.2.2" ~null_tol:0.10 ~maxr_tol:0.05;
  check "4.2.3" ~null_tol:0.10 ~maxr_tol:0.06;
  check "4.2.4" ~null_tol:0.05 ~maxr_tol:0.05;
  check "4.2.5" ~null_tol:0.05 ~maxr_tol:0.05;
  check "4.2.7" ~null_tol:0.05 ~maxr_tol:0.10;
  check "4.2.8" ~null_tol:0.05 ~maxr_tol:0.05;
  (* controller overlap and raw-Ethernet deviate by design (the model
     overlaps less than "maximum conceivable"; raw mode also shrinks
     packets); just check the direction and rough magnitude. *)
  let r421 = find "4.2.1" in
  Alcotest.(check bool) "4.2.1 saves substantially on MaxResult" true
    (r421.Experiments.Improvements.sim_maxr_saving_us > 1400.);
  let r426 = find "4.2.6" in
  Alcotest.(check bool) "4.2.6 saves on Null" true
    (r426.Experiments.Improvements.sim_null_saving_us > 50.)

let test_improvements_sign_consistency () =
  (* Every §4.2 change the paper estimates as a saving must also come
     out as a saving (not a regression) when actually re-simulated —
     catching a config toggle that silently starts costing time. *)
  List.iter
    (fun r ->
      let same_sign name paper sim =
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: sim %.0fus agrees in sign with paper %.0fus"
             r.Experiments.Improvements.change name sim paper)
          true
          ((paper > 0. && sim > 0.) || (paper < 0. && sim < 0.) || paper = 0.)
      in
      same_sign "Null" r.Experiments.Improvements.paper_null_saving_us
        r.Experiments.Improvements.sim_null_saving_us;
      same_sign "MaxResult" r.Experiments.Improvements.paper_maxr_saving_us
        r.Experiments.Improvements.sim_maxr_saving_us)
    (Experiments.Improvements.run ())

let test_improvements_deterministic () =
  (* The whole experiment is seeded: two runs must agree field-for-field
     (floats included — same instruction stream, same values). *)
  let a = Experiments.Improvements.run () in
  let b = Experiments.Improvements.run () in
  Alcotest.(check int) "same row count" (List.length a) (List.length b);
  List.iter2
    (fun ra rb ->
      Alcotest.(check string) "same change" ra.Experiments.Improvements.change
        rb.Experiments.Improvements.change;
      Alcotest.(check (float 0.)) "same Null saving"
        ra.Experiments.Improvements.sim_null_saving_us
        rb.Experiments.Improvements.sim_null_saving_us;
      Alcotest.(check (float 0.)) "same MaxResult saving"
        ra.Experiments.Improvements.sim_maxr_saving_us
        rb.Experiments.Improvements.sim_maxr_saving_us)
    a b;
  (* And the rendered table too, since `firefly repro improvements`
     prints it. *)
  Alcotest.(check string) "rendered table identical"
    (Report.Table.render (Experiments.Improvements.table ()))
    (Report.Table.render (Experiments.Improvements.table ()))

(* {1 Section 5} *)

let test_uniproc_bug () =
  (* 400 calls so the expected ~11 loss events make the mean stable. *)
  match Experiments.Section5.uniproc_bug ~calls:400 () with
  | [ buggy; fixed ] ->
    Alcotest.(check bool) "bug inflates latency to ~20ms" true
      (buggy.Experiments.Section5.mean_null_ms > 10.);
    Alcotest.(check bool) "fix restores ~5ms" true (fixed.Experiments.Section5.mean_null_ms < 6.);
    Alcotest.(check bool) "bug causes retransmissions" true
      (buggy.Experiments.Section5.retransmissions > 0);
    Alcotest.(check int) "fix removes them" 0 fixed.Experiments.Section5.retransmissions
  | _ -> Alcotest.fail "expected two rows"

let test_streaming () =
  match Experiments.Section5.streaming ~calls:120 () with
  | [ threads; stop_and_wait; blast ] ->
    Alcotest.(check bool) "streaming beats stop-and-wait" true
      (blast.Experiments.Section5.mbps > 1.5 *. stop_and_wait.Experiments.Section5.mbps);
    Alcotest.(check bool) "streaming at least matches thread-parallel RPC" true
      (blast.Experiments.Section5.mbps >= 0.95 *. threads.Experiments.Section5.mbps)
  | _ -> Alcotest.fail "expected three rows"

(* {1 Registry + rendering} *)

let test_table1_metrics_columns () =
  let t = Experiments.Table1.table ~calls:120 ~metrics:true () in
  Alcotest.(check int) "metrics adds three percentile columns" 8
    (List.length t.Report.Table.columns);
  Alcotest.(check (list string))
    "tail columns named" [ "Null p50 ms"; "Null p90 ms"; "Null p99 ms" ]
    (List.filteri (fun i _ -> i >= 5) t.Report.Table.columns);
  List.iter
    (fun row -> Alcotest.(check int) "every row fills every column" 8 (List.length row))
    t.Report.Table.rows;
  (* Percentiles are ordered in every row, and plausibly sized. *)
  List.iter
    (fun r ->
      match r.Experiments.Table1.null_tail_ms with
      | None -> Alcotest.fail "metrics run must fill null_tail_ms"
      | Some (p50, p90, p99) ->
        Alcotest.(check bool) "p50 <= p90 <= p99" true (p50 <= p90 && p90 <= p99);
        Alcotest.(check bool) "tail in a plausible band" true (p50 > 0.5 && p99 < 100.))
    (Experiments.Table1.run ~calls:120 ~metrics:true ());
  (* Without metrics the table keeps its original five columns. *)
  let plain = Experiments.Table1.table ~calls:120 () in
  Alcotest.(check int) "plain table unchanged" 5 (List.length plain.Report.Table.columns)

let test_table1_deterministic () =
  (* The whole pipeline — model, schedule, stats, rendering — must be a
     pure function of the seed: two runs render byte-identical tables. *)
  let render () =
    match Experiments.Registry.find "table1" with
    | None -> Alcotest.fail "table1 not registered"
    | Some e ->
      String.concat "\n" (List.map Report.Table.render (e.Experiments.Registry.run ~transport:`Auto ~quick:true ~metrics:false))
  in
  Alcotest.(check string) "same seed, byte-identical tables" (render ()) (render ())

let test_parallel_registry_identical () =
  (* Regenerating registry entries on a domain pool must render the
     exact tables the serial sweep does, in the same order: each entry
     builds its own worlds and shares no state with its siblings. *)
  let entries =
    List.filter_map Experiments.Registry.find
      [ "tables2-5"; "table6"; "table7"; "table8"; "improvements" ]
  in
  Alcotest.(check int) "entries found" 5 (List.length entries);
  let render (e : Experiments.Registry.entry) =
    String.concat ""
      (List.map Report.Table.render (e.Experiments.Registry.run ~transport:`Auto ~quick:true ~metrics:false))
  in
  let serial = List.map render entries in
  let par = Par.Pool.map_list ~jobs:4 render entries in
  List.iteri
    (fun i (s, p) -> Alcotest.(check string) (Printf.sprintf "entry %d identical" i) s p)
    (List.combine serial par)

let suite =
  [
    Alcotest.test_case "Table I shape and bands" `Slow test_table1_shape;
    Alcotest.test_case "Table I deterministic" `Slow test_table1_deterministic;
    Alcotest.test_case "Table I metrics columns" `Quick test_table1_metrics_columns;
    Alcotest.test_case "CPU utilization note" `Slow test_cpu_utilization;
    Alcotest.test_case "Tables II-V marshalling" `Quick test_marshalling;
    Alcotest.test_case "marshalling names a missing scenario" `Quick
      test_marshalling_missing_scenario;
    Alcotest.test_case "Table VI traced breakdown" `Quick test_table6;
    Alcotest.test_case "Table VII runtime breakdown" `Quick test_table7;
    Alcotest.test_case "Table VIII accounting" `Quick test_table8;
    Alcotest.test_case "Table IX interrupt versions" `Quick test_table9;
    Alcotest.test_case "Table X processor latency" `Slow test_table10;
    Alcotest.test_case "Table XI processor throughput" `Slow test_table11;
    Alcotest.test_case "Table XII systems comparison" `Slow test_table12;
    Alcotest.test_case "Section 4.2 improvements" `Quick test_improvements;
    Alcotest.test_case "Section 4.2 sign consistency" `Quick test_improvements_sign_consistency;
    Alcotest.test_case "Section 4.2 deterministic" `Quick test_improvements_deterministic;
    Alcotest.test_case "Section 5 uniprocessor bug" `Quick test_uniproc_bug;
    Alcotest.test_case "Section 5 streaming extension" `Quick test_streaming;
    Alcotest.test_case "parallel regeneration identical" `Quick
      test_parallel_registry_identical;
  ]

let () = Alcotest.run "experiments" [ ("experiments", suite) ]
