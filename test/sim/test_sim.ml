let () =
  Alcotest.run "sim"
    [
      ("time", Test_time.suite);
      ("eventq", Test_eventq.suite);
      ("calendar-wheel", Test_calwheel.suite);
      ("engine", Test_engine.suite);
      ("sync", Test_sync.suite);
      ("stats-trace", Test_stats_trace.suite);
      ("properties", Test_props.suite);
    ]
