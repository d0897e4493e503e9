module Frames = Rpc.Frames
module Proto = Rpc.Proto
module Timing = Hw.Timing
module Config = Hw.Config

let timing = Timing.create Config.default

let ep station ip = { Frames.mac = Net.Mac.of_station station; ip = Net.Ipv4.Addr.of_string ip }
let src = ep 1 "16.0.0.1"
let dst = ep 2 "16.0.0.2"

let hdr ?(ptype = Proto.Call) ?(data_len = 0) () =
  {
    Proto.ptype;
    please_ack = false;
    no_frag_ack = false;
    secured = false;
    activity = { Proto.Activity.caller_ip = src.Frames.ip; caller_space = 1; thread = 1 };
    seq = 7;
    server_space = 1;
    interface_id = 42l;
    proc_idx = 0;
    frag_idx = 0;
    frag_count = 1;
    data_len;
    checksum = 0;
  }

let build ?(timing = timing) payload =
  Frames.build timing ~src ~dst ~hdr:(hdr ()) ~payload ~payload_pos:0
    ~payload_len:(Bytes.length payload)

let test_sizes () =
  Alcotest.(check int) "empty payload = 74" 74 (Bytes.length (build Bytes.empty));
  Alcotest.(check int) "full payload = 1514" 1514 (Bytes.length (build (Bytes.create 1440)));
  Alcotest.(check bool) "oversize rejected" true
    (try
       ignore (build (Bytes.create 1441));
       false
     with Invalid_argument _ -> true)

let test_roundtrip () =
  let payload = Bytes.of_string "payload bytes here" in
  let frame = build payload in
  match Frames.parse timing frame with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check bool) "src mac" true (Net.Mac.equal p.Frames.p_src.Frames.mac src.Frames.mac);
    Alcotest.(check bool) "src ip" true
      (Net.Ipv4.Addr.equal p.Frames.p_src.Frames.ip src.Frames.ip);
    Alcotest.(check int) "seq" 7 p.Frames.p_hdr.Proto.seq;
    Alcotest.(check int) "data_len" (Bytes.length payload) p.Frames.p_hdr.Proto.data_len;
    Alcotest.(check bytes) "payload" payload (Wire.Bytebuf.View.to_bytes p.Frames.p_payload)

let test_checksum_detects () =
  let frame = build (Bytes.of_string "some sensitive data") in
  (* Flip one payload byte (payload starts at 74). *)
  Bytes.set frame 80 'X';
  match Frames.parse timing frame with
  | Ok _ -> Alcotest.fail "accepted corrupted frame"
  | Error e -> Alcotest.(check string) "checksum error" "udp: bad checksum" e

let test_checksums_disabled_pass_corruption () =
  let no_cks = Timing.create { Config.default with udp_checksums = false } in
  let frame = build ~timing:no_cks (Bytes.of_string "some sensitive data") in
  Bytes.set frame 80 'X';
  match Frames.parse no_cks frame with
  | Ok p ->
    Alcotest.(check bool) "corruption passes silently" true
      (Wire.Bytebuf.View.get p.Frames.p_payload 6 = 'X')
  | Error e -> Alcotest.fail e

let test_raw_ethernet_mode () =
  let raw = Timing.create { Config.default with raw_ethernet = true } in
  let payload = Bytes.of_string "raw mode payload" in
  let frame =
    Frames.build raw ~src ~dst ~hdr:(hdr ()) ~payload ~payload_pos:0
      ~payload_len:(Bytes.length payload)
  in
  (* 28 bytes smaller: no IP or UDP headers. *)
  Alcotest.(check int) "raw frame size" (46 + Bytes.length payload) (Bytes.length frame);
  (match Frames.parse raw frame with
  | Ok p -> Alcotest.(check bytes) "raw payload" payload (Wire.Bytebuf.View.to_bytes p.Frames.p_payload)
  | Error e -> Alcotest.fail e);
  (* The embedded end-to-end checksum still catches corruption. *)
  let corrupted = Bytes.copy frame in
  Bytes.set corrupted 50 'Z';
  match Frames.parse raw corrupted with
  | Ok _ -> Alcotest.fail "raw mode accepted corruption"
  | Error e -> Alcotest.(check string) "raw checksum error" "rpc: bad end-to-end checksum" e

let test_wrong_layer_rejected () =
  let frame = build Bytes.empty in
  (* Not the RPC UDP port: patch the UDP dst port (offset 14+20+2). *)
  let wrong_port = Bytes.copy frame in
  Bytes.set_uint16_be wrong_port 36 9999;
  (match Frames.parse timing wrong_port with
  | Ok _ -> Alcotest.fail "accepted wrong port"
  | Error _ -> ());
  let raw = Timing.create { Config.default with raw_ethernet = true } in
  match Frames.parse raw frame with
  | Ok _ -> Alcotest.fail "raw parser accepted IP frame"
  | Error _ -> ()

let prop_roundtrip =
  QCheck.Test.make ~name:"frame build/parse roundtrip" ~count:150
    QCheck.(string_of_size (QCheck.Gen.int_range 0 1440))
    (fun s ->
      let payload = Bytes.of_string s in
      let frame = build payload in
      match Frames.parse timing frame with
      | Ok p -> Wire.Bytebuf.View.equal_bytes p.Frames.p_payload payload
      | Error _ -> false)

(* {1 Malformed frames stay [Error], never exceptions} *)

let all_timings =
  [
    ("udp", timing);
    ("udp-nocks", Timing.create { Config.default with udp_checksums = false });
    ("raw", Timing.create { Config.default with raw_ethernet = true });
    ("raw-nocks", Timing.create { Config.default with raw_ethernet = true; udp_checksums = false });
  ]

let test_truncation_never_raises () =
  (* Every prefix of a valid frame under every regime must yield Error.
     Regression: lengths 14..45 of a raw-mode frame used to raise
     Invalid_argument out of the checksum-field peek. *)
  List.iter
    (fun (label, t) ->
      let frame =
        Frames.build t ~src ~dst ~hdr:(hdr ()) ~payload:(Bytes.create 64) ~payload_pos:0
          ~payload_len:64
      in
      for k = 0 to Bytes.length frame - 1 do
        match Frames.parse t (Bytes.sub frame 0 k) with
        | Ok _ -> Alcotest.fail (Printf.sprintf "[%s] accepted %d-byte prefix" label k)
        | Error _ -> ()
        | exception e ->
          Alcotest.fail
            (Printf.sprintf "[%s] %d-byte prefix raised %s" label k (Printexc.to_string e))
      done)
    all_timings

let test_ip_total_length_exceeds_frame () =
  let frame = build (Bytes.of_string "twelve bytes") in
  (* Inflate the IPv4 total length past the frame's end and refresh the
     header checksum so the length check itself is reached. *)
  Bytes.set_uint16_be frame 16 (Bytes.get_uint16_be frame 16 + 100);
  Bytes.set_uint16_be frame 24 0;
  Bytes.set_uint16_be frame 24 (Wire.Checksum.checksum frame ~pos:14 ~len:20);
  match Frames.parse timing frame with
  | Ok _ -> Alcotest.fail "accepted overlong total length"
  | Error e -> Alcotest.(check string) "total length error" "ipv4: total length exceeds frame" e

let test_trailing_padding_tolerated () =
  (* Link-layer padding after the datagram must not change the parse:
     the UDP layer is confined to exactly the IP payload. *)
  let payload = Bytes.of_string "padded frame payload" in
  let frame = build payload in
  let padded = Bytes.cat frame (Bytes.make 17 '\xee') in
  match Frames.parse timing padded with
  | Ok p ->
    Alcotest.(check bytes) "payload unchanged" payload
      (Wire.Bytebuf.View.to_bytes p.Frames.p_payload)
  | Error e -> Alcotest.fail e

let test_parse_view_matches_parse () =
  let module V = Wire.Bytebuf.View in
  List.iter
    (fun (label, t) ->
      let frame =
        Frames.build t ~src ~dst ~hdr:(hdr ()) ~payload:(Bytes.of_string "view parity")
          ~payload_pos:0 ~payload_len:11
      in
      List.iter
        (fun mutilate ->
          let input = mutilate (Bytes.copy frame) in
          (* Embed mid-buffer so absolute-offset bugs can't hide. *)
          let big = Bytes.make (Bytes.length input + 9) '\x5a' in
          Bytes.blit input 0 big 4 (Bytes.length input);
          let v = V.of_bytes ~pos:4 ~len:(Bytes.length input) big in
          let show = function
            | Ok p -> "ok:" ^ V.to_string p.Frames.p_payload
            | Error e -> "error:" ^ e
          in
          Alcotest.(check string)
            (label ^ ": parse = parse_view")
            (show (Frames.parse t input))
            (show (Frames.parse_view t v)))
        [
          (fun b -> b);
          (fun b -> Bytes.sub b 0 20);
          (fun b ->
            Bytes.set b 50 'X';
            b);
        ])
    all_timings

let prop_header_roundtrip =
  QCheck.Test.make ~name:"randomized header roundtrip (all regimes)" ~count:120
    QCheck.(
      pair
        (pair (int_bound 0xffff) (int_bound 0xffff))
        (pair (pair (int_bound 0xffff) bool) (int_bound 3)))
    (fun ((seq, proc_idx), ((thread, please_ack), regime)) ->
      let _, t = List.nth all_timings regime in
      let h =
        {
          (hdr ()) with
          Proto.seq;
          proc_idx;
          please_ack;
          activity = { Proto.Activity.caller_ip = src.Frames.ip; caller_space = 3; thread };
        }
      in
      let payload = Bytes.make (seq mod 97) 'q' in
      let frame =
        Frames.build t ~src ~dst ~hdr:h ~payload ~payload_pos:0
          ~payload_len:(Bytes.length payload)
      in
      match Frames.parse t frame with
      | Ok p ->
        p.Frames.p_hdr.Proto.seq = seq
        && p.Frames.p_hdr.Proto.proc_idx = proc_idx
        && p.Frames.p_hdr.Proto.please_ack = please_ack
        && p.Frames.p_hdr.Proto.activity.Proto.Activity.thread = thread
        && Wire.Bytebuf.View.equal_bytes p.Frames.p_payload payload
      | Error _ -> false)

(* {1 Known-answer frames}

   Whole frames of the Test interface, byte for byte: their checksum
   fields and MD5s were recorded with the pairwise checksum, the
   field-at-a-time header writers and the per-byte definition of the
   test pattern.  A checksum, a header layout or a pattern that changed
   the same way at both ends would still round-trip and leave every
   table and digest as it was; these pins would not.  Every packet
   type is pinned, in both regimes. *)

module Ti = Workload.Test_interface

let call_frame t ~proc_idx args =
  let p = Ti.interface.Rpc.Idl.procs.(proc_idx) in
  let w = Wire.Bytebuf.Writer.create 2048 in
  Rpc.Marshal.encode_args w Rpc.Marshal.In_call_packet p args;
  let payload = Wire.Bytebuf.Writer.contents w in
  let hdr =
    { (hdr ()) with Proto.seq = 1; interface_id = Rpc.Idl.interface_id Ti.interface; proc_idx }
  in
  Frames.build t ~src ~dst ~hdr ~payload ~payload_pos:0 ~payload_len:(Bytes.length payload)

let get_data_hdr ptype ~frag_idx ~frag_count =
  {
    (hdr ~ptype ()) with
    Proto.seq = 1;
    interface_id = Rpc.Idl.interface_id Ti.interface;
    proc_idx = Ti.get_data_idx;
    frag_idx;
    frag_count;
  }

(* Fragment 2 (counting from 0) of GetData(6000)'s five-fragment
   result, as a retransmitting server sends it: please-ack set, and
   the third full-size slice of the marshalled result as payload. *)
let result_fragment t =
  let p = Ti.interface.Rpc.Idl.procs.(Ti.get_data_idx) in
  let w = Wire.Bytebuf.Writer.create 8192 in
  Rpc.Marshal.encode_args w Rpc.Marshal.In_result_packet p
    [ Rpc.Marshal.V_int 6000l; Rpc.Marshal.V_bytes (Ti.pattern 6000) ];
  let payload = Wire.Bytebuf.Writer.contents w in
  let m = Timing.max_payload_bytes t in
  Alcotest.(check int) "GetData(6000) result fragments" 5
    (Rpc.Exchange.fragment_count ~max_payload:m (Bytes.length payload));
  let hdr = { (get_data_hdr Proto.Result ~frag_idx:2 ~frag_count:5) with Proto.please_ack = true } in
  Frames.build t ~src ~dst ~hdr ~payload ~payload_pos:(2 * m) ~payload_len:m

let reply_frame t ptype ?(payload = Bytes.empty) ~frag_idx ~frag_count () =
  Frames.build t ~src:dst ~dst:src ~hdr:(get_data_hdr ptype ~frag_idx ~frag_count) ~payload
    ~payload_pos:0 ~payload_len:(Bytes.length payload)

let check_known (label, frame, size, fields, md5) =
  Alcotest.(check int) (label ^ " size") size (Bytes.length frame);
  List.iter
    (fun (at, v) ->
      Alcotest.(check int)
        (Printf.sprintf "%s checksum field at %d" label at)
        v (Bytes.get_uint16_be frame at))
    fields;
  Alcotest.(check string) (label ^ " md5") md5 (Digest.to_hex (Digest.bytes frame))

let raw = Timing.create { Config.default with raw_ethernet = true }

(* The checksum fields: IPv4 header (offset 24) and UDP (40) in the
   default regime; the RPC header's end-to-end field (44) in raw
   Ethernet mode. *)
let test_known_answer_frames () =
  let null = (Ti.null_idx, []) in
  let max_arg = (Ti.max_arg_idx, [ Rpc.Marshal.V_bytes (Ti.pattern Ti.buffer_bytes) ]) in
  List.iter
    (fun (label, t, (proc_idx, args), size, fields, md5) ->
      check_known (label, call_frame t ~proc_idx args, size, fields, md5))
    [
      ("udp Null()", timing, null, 74, [ (24, 0x7caf); (40, 0x5e8a) ],
       "19dd71005cccdca0f9adfbbdff5f706d");
      ("udp MaxArg(1440)", timing, max_arg, 1514, [ (24, 0x770f); (40, 0x9643) ],
       "2914ceed48698145c4be88a0815e06c3");
      ("raw Null()", raw, null, 46, [ (44, 0x8312) ], "87886e8cb1fa5daaf217e7d763f13dfb");
      ("raw MaxArg(1440)", raw, max_arg, 1486, [ (44, 0xc60b) ],
       "e86eaf75ef9005cfc7d2940046aedea1");
    ]

(* Results, acks, busy and error replies, and a call sent with
   checksums off (both checksum fields then stay zero). *)
let test_known_answer_other_frames () =
  let nocks = Timing.create { Config.default with udp_checksums = false } in
  let raw_nocks = Timing.create { Config.default with raw_ethernet = true; udp_checksums = false } in
  let error = Bytes.of_string "marshalling failure: GetData: length out of range" in
  let replies t =
    [
      result_fragment t;
      reply_frame t Proto.Ack ~frag_idx:2 ~frag_count:5 ();
      reply_frame t Proto.Busy ~frag_idx:0 ~frag_count:1 ();
      reply_frame t Proto.Error_reply ~payload:error ~frag_idx:0 ~frag_count:1 ();
    ]
  in
  List.iter check_known
    (List.map2
       (fun frame (label, size, fields, md5) -> (label, frame, size, fields, md5))
       (replies timing @ replies raw
       @ [ call_frame nocks ~proc_idx:Ti.null_idx []; call_frame raw_nocks ~proc_idx:Ti.null_idx [] ]
       )
       [
         ("udp GetData(6000) result 2/5", 1514, [ (24, 0x770f); (40, 0x9238) ],
          "991f77aa07937e6ed35ac4c1e966eea0");
         ("udp Ack 2/5", 74, [ (24, 0x7caf); (40, 0x5c81) ], "0598a987c7e537dfee0d5fc5664747dd");
         ("udp Busy", 74, [ (24, 0x7caf); (40, 0x5b87) ], "34920a40b33016787525396fab4b2ce7");
         ("udp Error_reply", 123, [ (24, 0x7c7e); (40, 0x0038) ],
          "f48f2569eea89f57ade08ac7c998e37b");
         ("raw GetData(6000) result 2/5", 1514, [ (44, 0x12d3) ],
          "e5a1182b4d6bca3dea3fdc1cc1069d9a");
         ("raw Ack 2/5", 46, [ (44, 0x8109) ], "89331b33207ad0d7c8633a30a6ed6ca1");
         ("raw Busy", 46, [ (44, 0x800f) ], "b5d2a32ed4b9b1ffdd393d521b4229be");
         ("raw Error_reply", 95, [ (44, 0x2522) ], "f45163d9e37c34bc667fbbd78a57fbb3");
         ("udp no-checksum Null()", 74, [ (24, 0x7caf); (40, 0x0000) ],
          "aac6fceda9d6d1f97c0b3d858d8e39be");
         ("raw no-checksum Null()", 46, [ (44, 0x0000) ], "681e442c1a2bcf77844c4bae946ebbd8");
       ])

(* The wire kernels' allocation, 1,000 runs each over the 74-byte Null()
   call frame: building it takes the frame, its writer, the header
   records and the UDP payload closure (49 words); parsing it takes the
   views, readers, decoded records and results (108 words).  A copy or
   a fresh reader put back on either path fails here. *)
let test_kernels_allocation () =
  let frame = call_frame timing ~proc_idx:Ti.null_idx [] in
  let hdr =
    match Frames.parse timing frame with
    | Ok p -> p.Frames.p_hdr
    | Error e -> Alcotest.fail e
  in
  let words f =
    let minor0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    (Gc.minor_words () -. minor0) /. 1000.
  in
  let build () =
    ignore
      (Sys.opaque_identity
         (Frames.build timing ~src ~dst ~hdr ~payload:Bytes.empty ~payload_pos:0 ~payload_len:0))
  in
  let parse () = ignore (Sys.opaque_identity (Frames.parse timing frame)) in
  let at_most label limit f =
    let w = words f in
    if w > limit then Alcotest.failf "%s: %.1f minor words per frame, over %.0f" label w limit
  in
  at_most "Frames.build" 49. build;
  at_most "Frames.parse" 108. parse

let test_pattern_definition () =
  List.iter
    (fun n ->
      Alcotest.(check bytes)
        (Printf.sprintf "pattern %d" n)
        (Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)))
        (Ti.pattern n))
    (List.init 601 Fun.id @ [ 6000; 60_000 ])

let test_max_arg_check () =
  let max_arg = (Ti.procedures ()).(Ti.max_arg_idx) in
  let accepts b =
    match max_arg [ Rpc.Marshal.V_bytes b ] with
    | [] -> true
    | _ -> Alcotest.fail "MaxArg returned results"
    | exception Rpc.Rpc_error.Rpc (Rpc.Rpc_error.Marshal_failure _) -> false
  in
  let good = Ti.pattern Ti.buffer_bytes in
  Alcotest.(check bool) "the pattern is accepted" true (accepts good);
  List.iter
    (fun i ->
      let b = Bytes.copy good in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Alcotest.(check bool) (Printf.sprintf "byte %d flipped" i) false (accepts b))
    [ 0; 255; 256; 1439 ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%d bytes" n) false (accepts (Ti.pattern n)))
    [ 0; 1439; 1441 ];
  let args = [ Rpc.Marshal.V_bytes good ] in
  let minor0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (max_arg args))
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. minor0)

let suite =
  [
    Alcotest.test_case "paper frame sizes" `Quick test_sizes;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "checksum detects corruption" `Quick test_checksum_detects;
    Alcotest.test_case "disabled checksums pass corruption" `Quick
      test_checksums_disabled_pass_corruption;
    Alcotest.test_case "raw ethernet mode" `Quick test_raw_ethernet_mode;
    Alcotest.test_case "wrong layer rejected" `Quick test_wrong_layer_rejected;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "truncation never raises (all regimes)" `Quick
      test_truncation_never_raises;
    Alcotest.test_case "ip total length exceeds frame" `Quick test_ip_total_length_exceeds_frame;
    Alcotest.test_case "trailing link padding tolerated" `Quick test_trailing_padding_tolerated;
    Alcotest.test_case "parse_view matches parse" `Quick test_parse_view_matches_parse;
    QCheck_alcotest.to_alcotest prop_header_roundtrip;
    Alcotest.test_case "known-answer call frames" `Quick test_known_answer_frames;
    Alcotest.test_case "known-answer reply and unchecksummed frames" `Quick
      test_known_answer_other_frames;
    Alcotest.test_case "frame build and parse allocation" `Quick test_kernels_allocation;
    Alcotest.test_case "test pattern matches its definition" `Quick test_pattern_definition;
    Alcotest.test_case "MaxArg checks the pattern in place" `Quick test_max_arg_check;
  ]
