let () =
  Alcotest.run "rpc"
    [
      ("proto", Test_proto.suite);
      ("idl-marshal", Test_marshal.suite);
      ("frames", Test_frames.suite);
      ("end-to-end", Test_e2e.suite);
      ("wan", Test_wan.suite);
      ("secure", Test_secure.suite);
      ("robustness", Test_robust.suite);
      ("protocol-properties", Test_protocol_props.suite);
      ("exchange", Test_exchange.suite);
      ("decnet", Test_decnet.suite);
      ("typed", Test_typed.suite);
    ]
