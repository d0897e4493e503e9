module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module Proto = Rpc.Proto

let activity ?(thread = 3) () =
  {
    Proto.Activity.caller_ip = Net.Ipv4.Addr.of_string "16.0.0.1";
    caller_space = 7;
    thread;
  }

let header ?(ptype = Proto.Call) ?(seq = 42) ?(frag_idx = 0) ?(frag_count = 1)
    ?(please_ack = false) () =
  {
    Proto.ptype;
    please_ack;
    no_frag_ack = false;
    secured = false;
    activity = activity ();
    seq;
    server_space = 2;
    interface_id = 0x1234abcdl;
    proc_idx = 5;
    frag_idx;
    frag_count;
    data_len = 100;
    checksum = 0xbeef;
  }

let roundtrip h =
  let w = W.create Proto.size in
  Proto.encode w h;
  Alcotest.(check int) "header size" Proto.size (W.length w);
  match Proto.decode (R.of_bytes (W.contents w)) with
  | Ok h' -> h'
  | Error e -> Alcotest.fail e

let test_roundtrip () =
  let h = header ~ptype:Proto.Result ~seq:99 ~frag_idx:2 ~frag_count:5 ~please_ack:true () in
  let h' = roundtrip h in
  Alcotest.(check bool) "activity" true (Proto.Activity.equal h.Proto.activity h'.Proto.activity);
  Alcotest.(check int) "seq" 99 h'.Proto.seq;
  Alcotest.(check bool) "ptype" true (h'.Proto.ptype = Proto.Result);
  Alcotest.(check bool) "please_ack" true h'.Proto.please_ack;
  Alcotest.(check int) "frag_idx" 2 h'.Proto.frag_idx;
  Alcotest.(check int) "frag_count" 5 h'.Proto.frag_count;
  Alcotest.(check int) "data_len" 100 h'.Proto.data_len;
  Alcotest.(check int) "checksum" 0xbeef h'.Proto.checksum;
  Alcotest.(check int32) "interface" 0x1234abcdl h'.Proto.interface_id;
  Alcotest.(check int) "proc" 5 h'.Proto.proc_idx;
  Alcotest.(check int) "server space" 2 h'.Proto.server_space

let test_all_ptypes () =
  List.iter
    (fun pt ->
      let h = roundtrip (header ~ptype:pt ()) in
      Alcotest.(check bool) "ptype preserved" true (h.Proto.ptype = pt))
    [ Proto.Call; Proto.Result; Proto.Ack; Proto.Busy; Proto.Error_reply ]

let expect_error expected bytes =
  match Proto.decode (R.of_bytes bytes) with
  | Ok _ -> Alcotest.fail ("accepted: " ^ expected)
  | Error e -> Alcotest.(check string) "error message" expected e

let test_rejects () =
  let w = W.create Proto.size in
  Proto.encode w (header ());
  let good = W.contents w in
  expect_error "rpc: truncated header" (Bytes.sub good 0 10);
  let bad_magic = Bytes.copy good in
  Bytes.set bad_magic 0 'X';
  expect_error "rpc: bad magic" bad_magic;
  let bad_version = Bytes.copy good in
  Bytes.set bad_version 1 '\x7f';
  expect_error "rpc: bad version" bad_version;
  let bad_ptype = Bytes.copy good in
  Bytes.set bad_ptype 2 '\x63';
  expect_error "rpc: unknown packet type 99" bad_ptype;
  (* frag_idx >= frag_count *)
  let w = W.create Proto.size in
  Proto.encode w (header ~frag_idx:0 ~frag_count:1 ());
  let b = W.contents w in
  Bytes.set_uint16_be b 24 3 (* frag_idx field *);
  expect_error "rpc: bad fragment numbering" b

(* Each 16-bit field out of range is refused with the writer's u16
   message, and the checks come before the header's window is taken. *)
let test_encode_range () =
  let h = header () in
  let a = h.Proto.activity in
  List.iter
    (fun (field, h) ->
      let w = W.create Proto.size in
      Alcotest.check_raises field (Invalid_argument "Bytebuf.Writer.u16: out of range") (fun () ->
          Proto.encode w h);
      Alcotest.(check int) (field ^ ": nothing written") 0 (W.length w))
    [
      ("caller space", { h with Proto.activity = { a with Proto.Activity.caller_space = 0x10000 } });
      ("thread", { h with Proto.activity = { a with Proto.Activity.thread = -1 } });
      ("server space", { h with Proto.server_space = 0x10000 });
      ("procedure", { h with Proto.proc_idx = -1 });
      ("fragment index", { h with Proto.frag_idx = 0x10000 });
      ("fragment count", { h with Proto.frag_count = 0x1_0000 });
      ("data length", { h with Proto.data_len = 70_000 });
      ("checksum", { h with Proto.checksum = -2 });
    ]

let prop_roundtrip =
  QCheck.Test.make ~name:"proto header roundtrip" ~count:300
    QCheck.(
      quad (int_bound 0xfffff) (int_bound 0xffff) (int_bound 20) (int_bound 0xffff))
    (fun (seq, space, frag_count, data_len) ->
      QCheck.assume (frag_count >= 1);
      let frag_idx = seq mod frag_count in
      let h =
        {
          Proto.ptype = Proto.Call;
          please_ack = seq mod 2 = 0;
          no_frag_ack = seq mod 3 = 0;
          secured = seq mod 5 = 0;
          activity = activity ~thread:(space mod 100) ();
          seq;
          server_space = space;
          interface_id = Int32.of_int (seq * 7);
          proc_idx = space mod 32;
          frag_idx;
          frag_count;
          data_len;
          checksum = 0;
        }
      in
      let w = W.create Proto.size in
      Proto.encode w h;
      match Proto.decode (R.of_bytes (W.contents w)) with
      | Ok h' -> h = h'
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "all packet types" `Quick test_all_ptypes;
    Alcotest.test_case "malformed rejected" `Quick test_rejects;
    Alcotest.test_case "out-of-range fields refused" `Quick test_encode_range;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
