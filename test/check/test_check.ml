(* The deterministic simulation-testing harness, bounded for tier 1:
   a handful of seeds must pass every invariant, an intentionally
   crippled protocol must be caught and shrunk to a minimal fault plan,
   and everything must replay bit-identically from the seed. *)

module Explorer = Check.Explorer
module Fault_plan = Check.Fault_plan
module Invariant = Check.Invariant

(* Small workload so the whole suite stays in tier-1 time. *)
let config = { Explorer.default_config with Explorer.threads = 2; calls_per_thread = 3 }

let test_plan_generation_deterministic () =
  let a = Fault_plan.generate ~seed:11 () and b = Fault_plan.generate ~seed:11 () in
  Alcotest.(check bool) "same seed, same plan" true (a = b);
  Alcotest.(check bool) "different seeds differ" true
    (Fault_plan.generate ~seed:12 () <> a);
  Alcotest.(check bool) "bounded length" true
    (let n = List.length a.Fault_plan.steps in
     n >= 1 && n <= 6);
  (* Printing covers every step shape without raising. *)
  for seed = 1 to 20 do
    let p = Fault_plan.generate ~seed () in
    Alcotest.(check bool) "printable" true (String.length (Fault_plan.to_string p) > 0)
  done

let test_explorer_clean_seeds () =
  let summary = Explorer.explore config ~base_seed:1 ~seeds:6 in
  List.iter
    (fun o ->
      Alcotest.failf "seed %d violated invariants: %s" o.Explorer.seed
        (String.concat "; " (List.map Invariant.violation_to_string o.Explorer.violations)))
    summary.Explorer.failures;
  Alcotest.(check int) "all seeds ran" 6 summary.Explorer.seeds_run

let test_explorer_clean_fifo () =
  (* The frozen schedule must pass too (it is what every other test
     runs under). *)
  let config = { config with Explorer.tie_break = `Fifo } in
  let summary = Explorer.explore config ~base_seed:31 ~seeds:3 in
  Alcotest.(check int) "no violations under FIFO ties" 0
    (List.length summary.Explorer.failures)

let test_run_is_deterministic () =
  let a = Explorer.run_seed config ~seed:5 and b = Explorer.run_seed config ~seed:5 in
  Alcotest.(check int) "events" a.Explorer.events_executed b.Explorer.events_executed;
  Alcotest.(check int) "frames" a.Explorer.frames_carried b.Explorer.frames_carried;
  Alcotest.(check int) "ok calls" a.Explorer.calls_ok b.Explorer.calls_ok;
  Alcotest.(check int) "failed calls" a.Explorer.calls_failed b.Explorer.calls_failed

let first_drop_seed =
  (* The demonstration bug needs a plan with a frame fault that costs a
     packet; nearly every seed has one, find the first. *)
  let rec go seed =
    if seed > 50 then Alcotest.fail "no drop-bearing seed in 1..50"
    else
      let p = Fault_plan.generate ~seed () in
      if
        (not (Fault_plan.has_restart p))
        && List.exists
             (function
               | Fault_plan.Frame_fault { action = Fault_plan.Drop; _ } -> true
               | _ -> false)
             p.Fault_plan.steps
      then seed
      else go (seed + 1)
  in
  go 1

let test_injected_bug_caught_and_shrunk () =
  let buggy = { config with Explorer.bug = Explorer.No_retransmit } in
  let seed = first_drop_seed in
  let o = Explorer.run_seed buggy ~seed in
  Alcotest.(check bool) "violation detected" true (o.Explorer.violations <> []);
  let minimal = Explorer.shrink buggy o in
  Alcotest.(check bool) "shrunk plan still fails" true (minimal.Explorer.violations <> []);
  let n0 = List.length o.Explorer.plan.Fault_plan.steps in
  let n1 = List.length minimal.Explorer.plan.Fault_plan.steps in
  Alcotest.(check bool) "minimal plan no larger" true (n1 <= n0);
  Alcotest.(check bool) "minimal plan non-empty" true (n1 >= 1);
  (* 1-minimality: removing any remaining step loses the failure. *)
  List.iteri
    (fun i _ ->
      let steps =
        List.filteri (fun j _ -> j <> i) minimal.Explorer.plan.Fault_plan.steps
      in
      let o' =
        Explorer.run_plan buggy ~seed ~plan:{ minimal.Explorer.plan with Fault_plan.steps }
      in
      Alcotest.(check bool)
        (Printf.sprintf "dropping step %d of the minimal plan loses the failure" i)
        true (o'.Explorer.violations = []))
    minimal.Explorer.plan.Fault_plan.steps;
  (* The printed seed replays the same violations. *)
  let replay = Explorer.run_plan buggy ~seed ~plan:minimal.Explorer.plan in
  Alcotest.(check (list string)) "replay reproduces the violations"
    (List.map Invariant.violation_to_string minimal.Explorer.violations)
    (List.map Invariant.violation_to_string replay.Explorer.violations)

let test_failure_report_renders () =
  let buggy = { config with Explorer.bug = Explorer.No_retransmit } in
  let summary = Explorer.explore buggy ~base_seed:first_drop_seed ~seeds:1 in
  match summary.Explorer.failures with
  | [] -> Alcotest.fail "expected the crippled protocol to fail"
  | o :: _ ->
    let report = Format.asprintf "%a" Explorer.pp_outcome o in
    let has_sub sub =
      let n = String.length sub and s = report in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "report names the seed" true
      (has_sub (Printf.sprintf "seed %d" o.Explorer.seed));
    Alcotest.(check bool) "report shows the plan" true (has_sub "fault plan");
    Alcotest.(check bool) "report has a replay line" true (has_sub "replay:");
    Alcotest.(check bool) "report dumps the trace" true (has_sub "trace log")

let test_restart_plans_allow_clean_failure () =
  (* A plan that kills the server mid-run: calls may fail, but only
     cleanly, and every other invariant still holds. *)
  let plan =
    {
      Fault_plan.seed = 0;
      steps =
        [ Fault_plan.Restart_server { after_us = 20_000; down_us = 400_000 } ];
    }
  in
  let o =
    Explorer.run_plan
      { config with Explorer.calls_per_thread = 2 }
      ~seed:3 ~plan
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map Invariant.violation_to_string o.Explorer.violations);
  Alcotest.(check bool) "all calls accounted for" true (o.Explorer.calls_ok >= 1)

let test_matrix_smoke () =
  (* One seed per cell across the full 24-cell configuration matrix:
     every cell must construct (uniprocessor, streaming, secured,
     multi-fragment payloads) and pass the invariants. *)
  let summary = Explorer.explore_matrix config ~base_seed:41 ~seeds_per_cell:1 in
  List.iter
    (fun o ->
      Alcotest.failf "matrix seed %d violated invariants: %s" o.Explorer.seed
        (String.concat "; " (List.map Invariant.violation_to_string o.Explorer.violations)))
    summary.Explorer.failures;
  Alcotest.(check int) "every cell ran" (List.length Explorer.matrix_cells)
    summary.Explorer.seeds_run

(* {1 Parallel determinism}

   jobs=1 and jobs>1 must produce identical summaries: same seed counts,
   same failures, same shrunk plans and traces, in the same order.  The
   render includes the full pp_outcome report, so any divergence in the
   plan, violations or trace shows up as a string mismatch. *)

let render_summary (s : Explorer.summary) =
  Printf.sprintf "seeds_run=%d\n%s" s.Explorer.seeds_run
    (String.concat "\n---\n"
       (List.map (fun o -> Format.asprintf "%a" Explorer.pp_outcome o) s.Explorer.failures))

let test_parallel_explore_identical () =
  (* Clean config: identical (empty) failure lists and seed counts. *)
  let serial = Explorer.explore config ~jobs:1 ~base_seed:1 ~seeds:6 in
  let par = Explorer.explore config ~jobs:4 ~base_seed:1 ~seeds:6 in
  Alcotest.(check string) "clean sweep identical" (render_summary serial)
    (render_summary par);
  (* Buggy config: the failing outcome — including the shrunk plan and
     the trace — must match byte for byte. *)
  let buggy = { config with Explorer.bug = Explorer.No_retransmit } in
  let serial = Explorer.explore buggy ~jobs:1 ~base_seed:first_drop_seed ~seeds:3 in
  let par = Explorer.explore buggy ~jobs:4 ~base_seed:first_drop_seed ~seeds:3 in
  Alcotest.(check bool) "buggy sweep finds failures" true
    (serial.Explorer.failures <> []);
  Alcotest.(check string) "buggy sweep identical" (render_summary serial)
    (render_summary par)

let test_parallel_matrix_identical () =
  let serial = Explorer.explore_matrix config ~jobs:1 ~base_seed:41 ~seeds_per_cell:1 in
  let par = Explorer.explore_matrix config ~jobs:4 ~base_seed:41 ~seeds_per_cell:1 in
  Alcotest.(check int) "same seed count" serial.Explorer.seeds_run par.Explorer.seeds_run;
  Alcotest.(check string) "matrix sweep identical" (render_summary serial)
    (render_summary par)

(* [validate] accepts the default and the largest payload, and rejects
   each field's first value outside its range; [run_plan] refuses what
   it rejects before building a world. *)
let test_config_validation () =
  let d = Explorer.default_config in
  let max = Workload.Test_interface.get_data_max in
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " accepted") true (Result.is_ok (Explorer.validate c)))
    [
      ("default", d);
      ("payload 0", { d with Explorer.payload = 0 });
      ("largest payload", { d with Explorer.payload = max });
    ];
  List.iter
    (fun (name, c) ->
      Alcotest.(check bool) (name ^ " rejected") true (Result.is_error (Explorer.validate c));
      Alcotest.(check bool) (name ^ " refused by run_plan") true
        (try
           ignore (Explorer.run_plan c ~seed:1 ~plan:(Fault_plan.generate ~seed:1 ()));
           false
         with Invalid_argument _ -> true))
    [
      ("payload above the maximum", { d with Explorer.payload = max + 1 });
      ("negative payload", { d with Explorer.payload = -1 });
      ("0 threads", { d with Explorer.threads = 0 });
      ("0 calls", { d with Explorer.calls_per_thread = 0 });
      ("0 max steps", { d with Explorer.max_steps = 0 });
    ]

let suite =
  [
    Alcotest.test_case "plan generation deterministic" `Quick test_plan_generation_deterministic;
    Alcotest.test_case "clean seeds pass all invariants" `Quick test_explorer_clean_seeds;
    Alcotest.test_case "clean under FIFO ties too" `Quick test_explorer_clean_fifo;
    Alcotest.test_case "runs are deterministic" `Quick test_run_is_deterministic;
    Alcotest.test_case "injected bug caught and shrunk" `Quick test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "failure report renders" `Quick test_failure_report_renders;
    Alcotest.test_case "restart plans allow clean failure" `Quick
      test_restart_plans_allow_clean_failure;
    Alcotest.test_case "configuration matrix smoke" `Quick test_matrix_smoke;
    Alcotest.test_case "parallel explore identical to serial" `Quick
      test_parallel_explore_identical;
    Alcotest.test_case "parallel matrix identical to serial" `Quick
      test_parallel_matrix_identical;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]

let () = Alcotest.run "check" [ ("explorer", suite) ]
