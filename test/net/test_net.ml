module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module Mac = Net.Mac
module Ethernet = Net.Ethernet
module Ipv4 = Net.Ipv4
module Udp = Net.Udp

(* {1 MAC} *)

let test_mac_parse () =
  let m = Mac.of_string "aa:bb:cc:00:11:ff" in
  Alcotest.(check string) "roundtrip" "aa:bb:cc:00:11:ff" (Mac.to_string m);
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast (Mac.of_string "ff:ff:ff:ff:ff:ff"));
  Alcotest.(check bool) "station not broadcast" false (Mac.is_broadcast (Mac.of_station 3));
  Alcotest.(check bool) "bad octet" true
    (try
       ignore (Mac.of_string "aa:bb:cc:dd:ee:zz");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong arity" true
    (try
       ignore (Mac.of_string "aa:bb");
       false
     with Invalid_argument _ -> true)

let test_mac_station_distinct () =
  let a = Mac.of_station 1 and b = Mac.of_station 2 in
  Alcotest.(check bool) "distinct" false (Mac.equal a b);
  Alcotest.(check string) "encoding" "02:00:00:00:00:01" (Mac.to_string a)

let test_mac_wire () =
  let m = Mac.of_station 0x123456 in
  let b = Bytes.make 10 '\x00' in
  Mac.set b 3 m;
  Alcotest.(check string) "set writes the wire bytes" "\x00\x00\x00\x02\x00\x00\x12\x34\x56\x00"
    (Bytes.to_string b);
  Alcotest.(check bool) "get reads them back" true (Mac.equal m (Mac.get b 3));
  let r = R.of_bytes ~pos:3 b in
  Alcotest.(check string) "read consumes them" "02:00:00:12:34:56" (Mac.to_string (Mac.read r));
  Alcotest.(check int) "six bytes" 1 (R.remaining r);
  Alcotest.(check bool) "get past the end" true
    (match Mac.get b 5 with _ -> false | exception Invalid_argument _ -> true)

(* {1 Ethernet} *)

let test_ethernet_roundtrip () =
  let h =
    { Ethernet.dst = Mac.of_station 2; src = Mac.of_station 1; ethertype = Ethernet.ethertype_ipv4 }
  in
  let w = W.create 64 in
  Ethernet.encode w h;
  Alcotest.(check int) "header size" Ethernet.header_size (W.length w);
  W.string w "payload";
  let r = R.of_bytes (W.contents w) in
  (match Ethernet.decode r with
  | Ok h' ->
    Alcotest.(check bool) "dst" true (Mac.equal h.Ethernet.dst h'.Ethernet.dst);
    Alcotest.(check bool) "src" true (Mac.equal h.Ethernet.src h'.Ethernet.src);
    Alcotest.(check int) "ethertype" h.Ethernet.ethertype h'.Ethernet.ethertype;
    Alcotest.(check string) "payload preserved" "payload" (R.string r 7)
  | Error e -> Alcotest.fail e)

let test_ethernet_truncated () =
  match Ethernet.decode (R.of_bytes (Bytes.create 5)) with
  | Ok _ -> Alcotest.fail "accepted truncated frame"
  | Error _ -> ()

let test_ethernet_truncated_every_offset () =
  let w = W.create 16 in
  Ethernet.encode w
    { Ethernet.dst = Mac.of_station 2; src = Mac.of_station 1; ethertype = Ethernet.ethertype_ipv4 };
  let full = W.contents w in
  for k = 0 to Ethernet.header_size - 1 do
    match Ethernet.decode (R.of_bytes (Bytes.sub full 0 k)) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %d-byte frame" k)
    | Error e ->
      Alcotest.(check string) (Printf.sprintf "truncated at %d" k) "ethernet: frame too short" e
  done;
  match Ethernet.decode (R.of_bytes full) with Ok _ -> () | Error e -> Alcotest.fail e

let prop_ethernet_roundtrip =
  QCheck.Test.make ~name:"ethernet header roundtrip" ~count:200
    QCheck.(triple (int_bound 0xffffff) (int_bound 0xffffff) (int_bound 0xffff))
    (fun (s, d, ethertype) ->
      let h = { Ethernet.dst = Mac.of_station d; src = Mac.of_station s; ethertype } in
      let w = W.create 16 in
      Ethernet.encode w h;
      match Ethernet.decode (R.of_bytes (W.contents w)) with
      | Ok h' ->
        Mac.equal h.Ethernet.dst h'.Ethernet.dst
        && Mac.equal h.Ethernet.src h'.Ethernet.src
        && h'.Ethernet.ethertype = ethertype
      | Error _ -> false)

(* {1 IPv4} *)

let ip = Ipv4.Addr.of_string

let test_addr () =
  Alcotest.(check string) "roundtrip" "16.1.0.255" (Ipv4.Addr.to_string (ip "16.1.0.255"));
  Alcotest.(check bool) "equal" true (Ipv4.Addr.equal (ip "1.2.3.4") (ip "1.2.3.4"));
  Alcotest.(check bool) "bad" true
    (try
       ignore (ip "1.2.3.400");
       false
     with Invalid_argument _ -> true)

let ipv4_header payload_len =
  {
    Ipv4.src = ip "16.0.0.1";
    dst = ip "16.0.0.2";
    protocol = Ipv4.protocol_udp;
    ttl = 30;
    ident = 4242;
    payload_len;
  }

let test_ipv4_roundtrip () =
  let h = ipv4_header 100 in
  let w = W.create 64 in
  Ipv4.encode w h;
  Alcotest.(check int) "header size" Ipv4.header_size (W.length w);
  match Ipv4.decode (R.of_bytes (W.contents w)) with
  | Ok h' ->
    Alcotest.(check string) "src" "16.0.0.1" (Ipv4.Addr.to_string h'.Ipv4.src);
    Alcotest.(check string) "dst" "16.0.0.2" (Ipv4.Addr.to_string h'.Ipv4.dst);
    Alcotest.(check int) "protocol" Ipv4.protocol_udp h'.Ipv4.protocol;
    Alcotest.(check int) "ident" 4242 h'.Ipv4.ident;
    Alcotest.(check int) "payload_len" 100 h'.Ipv4.payload_len
  | Error e -> Alcotest.fail e

let test_ipv4_checksum_detects_corruption () =
  let w = W.create 64 in
  Ipv4.encode w (ipv4_header 10);
  let b = W.contents w in
  Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0x40));
  match Ipv4.decode (R.of_bytes b) with
  | Ok _ -> Alcotest.fail "accepted corrupted header"
  | Error e -> Alcotest.(check string) "checksum error" "ipv4: bad header checksum" e

(* Exhaustive error-branch coverage.  The checksum is verified before any
   field parsing, so a crafted header must carry a correct checksum to
   reach the branch under test. *)

let valid_ipv4_bytes () =
  let w = W.create 32 in
  Ipv4.encode w (ipv4_header 32);
  W.contents w

let refix_ipv4_checksum b =
  Bytes.set_uint16_be b 10 0;
  Bytes.set_uint16_be b 10 (Wire.Checksum.checksum b ~pos:0 ~len:Ipv4.header_size)

let expect_ipv4_error name want b =
  match Ipv4.decode (R.of_bytes b) with
  | Ok _ -> Alcotest.fail (name ^ ": accepted")
  | Error e -> Alcotest.(check string) name want e

let test_ipv4_truncated_every_offset () =
  let full = valid_ipv4_bytes () in
  for k = 0 to Ipv4.header_size - 1 do
    expect_ipv4_error
      (Printf.sprintf "truncated at %d" k)
      "ipv4: truncated header" (Bytes.sub full 0 k)
  done

let test_ipv4_bad_version_and_ihl () =
  List.iter
    (fun vihl ->
      let b = valid_ipv4_bytes () in
      Bytes.set_uint8 b 0 vihl;
      refix_ipv4_checksum b;
      expect_ipv4_error
        (Printf.sprintf "vihl 0x%02x" vihl)
        (Printf.sprintf "ipv4: unsupported version/IHL 0x%02x" vihl)
        b)
    [ 0x55 (* version 5 *); 0x46 (* IHL 6: options *); 0x44 (* IHL 4: impossible *); 0x00 ]

let test_ipv4_fragmented_rejected () =
  List.iter
    (fun frag ->
      let b = valid_ipv4_bytes () in
      Bytes.set_uint16_be b 6 frag;
      refix_ipv4_checksum b;
      expect_ipv4_error
        (Printf.sprintf "frag 0x%04x" frag)
        "ipv4: fragmented packet unsupported" b)
    [ 0x2000 (* more-fragments *); 0x0001 (* nonzero offset *); 0x3fff ];
  (* Don't-fragment alone is not fragmentation and must still pass. *)
  let b = valid_ipv4_bytes () in
  Bytes.set_uint16_be b 6 0x4000;
  refix_ipv4_checksum b;
  match Ipv4.decode (R.of_bytes b) with Ok _ -> () | Error e -> Alcotest.fail e

let test_ipv4_bad_total_length () =
  List.iter
    (fun total ->
      let b = valid_ipv4_bytes () in
      Bytes.set_uint16_be b 2 total;
      refix_ipv4_checksum b;
      expect_ipv4_error (Printf.sprintf "total %d" total) "ipv4: bad total length" b)
    [ 0; 1; Ipv4.header_size - 1 ]

let test_ipv4_checksum_covers_every_byte () =
  for i = 0 to Ipv4.header_size - 1 do
    let b = valid_ipv4_bytes () in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0x04);
    match Ipv4.decode (R.of_bytes b) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "bit flip at byte %d accepted" i)
    | Error _ -> ()
  done

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 header roundtrip" ~count:200
    QCheck.(quad (int_bound 0xffff) (int_bound 255) small_int (int_bound 1400))
    (fun (ident, ttl, src_i, payload_len) ->
      QCheck.assume (ttl > 0);
      let h =
        {
          Ipv4.src = Ipv4.Addr.of_int32 (Int32.of_int (src_i + 1));
          dst = ip "16.0.0.9";
          protocol = Ipv4.protocol_udp;
          ttl;
          ident;
          payload_len;
        }
      in
      let w = W.create 32 in
      Ipv4.encode w h;
      match Ipv4.decode (R.of_bytes (W.contents w)) with
      | Ok h' ->
        Ipv4.Addr.equal h.Ipv4.src h'.Ipv4.src
        && h'.Ipv4.ident = ident && h'.Ipv4.ttl = ttl
        && h'.Ipv4.payload_len = payload_len
      | Error _ -> false)

(* {1 UDP} *)

let encode_udp ?checksum payload_str =
  let w = W.create 2048 in
  Udp.encode w ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") ~src_port:1111 ~dst_port:2222 ?checksum
    ~payload:(fun w -> W.string w payload_str)
    ();
  W.contents w

let test_udp_roundtrip () =
  let b = encode_udp "the quick brown fox" in
  match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
  | Ok (h, payload) ->
    Alcotest.(check int) "src port" 1111 h.Udp.src_port;
    Alcotest.(check int) "dst port" 2222 h.Udp.dst_port;
    Alcotest.(check int) "length" (8 + 19) h.Udp.length;
    Alcotest.(check bool) "checksum set" true (h.Udp.checksum <> 0);
    Alcotest.(check string) "payload" "the quick brown fox" (Wire.Bytebuf.View.to_string payload)
  | Error e -> Alcotest.fail e

let test_udp_checksum_detects_payload_corruption () =
  let b = encode_udp "sensitive data" in
  Bytes.set b 12 'X';
  match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
  | Ok _ -> Alcotest.fail "accepted corrupted payload"
  | Error e -> Alcotest.(check string) "checksum error" "udp: bad checksum" e

let test_udp_pseudo_header_binds_addresses () =
  (* Same datagram delivered to the wrong IP destination must fail:
     the pseudo-header ties the checksum to the address pair. *)
  let b = encode_udp "hello" in
  match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.3") with
  | Ok _ -> Alcotest.fail "accepted datagram under wrong pseudo-header"
  | Error _ -> ()

let test_udp_no_checksum_mode () =
  let b = encode_udp ~checksum:false "no checksum here" in
  (* Field is zero and corruption passes silently: this is the paper's
     §4.2.4 "omit UDP checksums" trade-off made concrete. *)
  Bytes.set b 12 'X';
  match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
  | Ok (h, _) -> Alcotest.(check int) "zero checksum field" 0 h.Udp.checksum
  | Error e -> Alcotest.fail e

let test_udp_truncated_every_offset () =
  let full = encode_udp "xyz" in
  for k = 0 to Udp.header_size - 1 do
    match Udp.decode (R.of_bytes (Bytes.sub full 0 k)) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %d-byte datagram" k)
    | Error e ->
      Alcotest.(check string) (Printf.sprintf "truncated at %d" k) "udp: truncated header" e
  done

let test_udp_bad_length_field () =
  (* Both sides of the length sanity check: below the header size and
     beyond the datagram's actual end. *)
  List.iter
    (fun len ->
      let b = encode_udp "0123456789" in
      Bytes.set_uint16_be b 4 len;
      match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted length=%d" len)
      | Error e -> Alcotest.(check string) (Printf.sprintf "length=%d" len) "udp: bad length" e)
    [ 0; 1; 7; 19 (* datagram is 18 *); 0xffff ]

let test_udp_checksum_field_corruption () =
  let b = encode_udp "payload" in
  let c = Bytes.get_uint16_be b 6 in
  Bytes.set_uint16_be b 6 (if c = 1 then 2 else 1);
  match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
  | Ok _ -> Alcotest.fail "accepted corrupted checksum field"
  | Error e -> Alcotest.(check string) "checksum error" "udp: bad checksum" e

let test_udp_zero_checksum_convention () =
  (* RFC 768: a computed checksum of zero is transmitted as 0xffff and
     must verify on receive.  Search a 2-byte payload slot for an input
     whose checksum computes to zero — ones-complement arithmetic
     guarantees one exists. *)
  let found = ref false in
  let v = ref 0 in
  while (not !found) && !v < 0x10000 do
    let payload = Bytes.create 2 in
    Bytes.set_uint16_be payload 0 !v;
    let b = encode_udp (Bytes.to_string payload) in
    if Bytes.get_uint16_be b 6 = 0xffff then begin
      found := true;
      match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
      | Ok (h, _) -> Alcotest.(check int) "0xffff on the wire" 0xffff h.Udp.checksum
      | Error e -> Alcotest.fail e
    end;
    incr v
  done;
  Alcotest.(check bool) "found a zero-checksum input" true !found

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp payload roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 1440))
    (fun payload ->
      let b = encode_udp payload in
      match Udp.decode (R.of_bytes b) ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") with
      | Ok (_, p) -> Wire.Bytebuf.View.to_string p = payload
      | Error _ -> false)

(* {1 Encoders refuse out-of-range fields}

   With the writer's own messages, before any byte of the header is
   written; UDP's length, known only once the payload is in, keeps the
   message of the patch that stores it. *)

let refuses label msg encode =
  let w = W.create 2048 in
  Alcotest.check_raises label (Invalid_argument msg) (fun () -> encode w);
  W.length w

let u8_range = "Bytebuf.Writer.u8: out of range"
let u16_range = "Bytebuf.Writer.u16: out of range"

let test_encode_range () =
  let eth ethertype = { Ethernet.dst = Mac.of_station 2; src = Mac.of_station 1; ethertype } in
  List.iter
    (fun (label, msg, encode) ->
      Alcotest.(check int) (label ^ ": nothing written") 0 (refuses label msg encode))
    [
      ("ethertype", u16_range, fun w -> Ethernet.encode w (eth 0x10000));
      ("ipv4 total length", u16_range, fun w -> Ipv4.encode w (ipv4_header 0xffec));
      ("ipv4 ident", u16_range, fun w -> Ipv4.encode w { (ipv4_header 8) with Ipv4.ident = -1 });
      ("ipv4 ttl", u8_range, fun w -> Ipv4.encode w { (ipv4_header 8) with Ipv4.ttl = 256 });
      ("ipv4 protocol", u8_range, fun w -> Ipv4.encode w { (ipv4_header 8) with Ipv4.protocol = -1 });
      ( "udp port",
        u16_range,
        fun w ->
          Udp.encode w ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") ~src_port:1 ~dst_port:0x10000
            ~payload:(fun _ -> ())
            () );
    ];
  (* Total length is checked before TTL, as the fields lie. *)
  ignore
    (refuses "ipv4 length before ttl" u16_range (fun w ->
         Ipv4.encode w { (ipv4_header 0x10000) with Ipv4.ttl = 256 }));
  let w = W.create 0x10010 in
  Alcotest.check_raises "udp length" (Invalid_argument "Bytebuf.Writer.patch_u16: out of range")
    (fun () ->
      Udp.encode w ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") ~src_port:1 ~dst_port:2
        ~payload:(fun w -> W.zeros w 0xfff8)
        ())

(* {1 The pseudo-header}

   [Ipv4.pseudo_header_sum] adds the six 16-bit words directly; it must
   equal the checksum of the 12 bytes written out, protocol and length
   truncated to their 8 and 16 bits as the byte writes truncate them. *)

let pseudo_header_bytes ~src ~dst ~protocol ~len =
  let b = Bytes.create 12 in
  Bytes.set_int32_be b 0 (Ipv4.Addr.to_int32 src);
  Bytes.set_int32_be b 4 (Ipv4.Addr.to_int32 dst);
  Bytes.set_uint8 b 8 0;
  Bytes.set_uint8 b 9 protocol;
  Bytes.set_uint16_be b 10 len;
  b

let prop_pseudo_header_sum =
  QCheck.Test.make ~name:"pseudo-header sum equals the checksum of its bytes" ~count:1000
    QCheck.(
      quad int32 int32
        (oneof [ int_bound 0xff; int_range (-0x1000) 0x1000; int ])
        (oneof [ int_bound 0xffff; int_range (-0x100000) 0x100000; int ]))
    (fun (s, d, protocol, len) ->
      let src = Ipv4.Addr.of_int32 s and dst = Ipv4.Addr.of_int32 d in
      Ipv4.pseudo_header_sum ~src ~dst ~protocol ~len
      = Wire.Checksum.sum (pseudo_header_bytes ~src ~dst ~protocol ~len) ~pos:0 ~len:12)

let test_pseudo_header_edges () =
  List.iter
    (fun (s, d, protocol, len) ->
      let src = Ipv4.Addr.of_int32 s and dst = Ipv4.Addr.of_int32 d in
      Alcotest.(check int)
        (Printf.sprintf "%ld %ld %d %d" s d protocol len)
        (Wire.Checksum.sum (pseudo_header_bytes ~src ~dst ~protocol ~len) ~pos:0 ~len:12)
        (Ipv4.pseudo_header_sum ~src ~dst ~protocol ~len))
    [
      (0l, 0l, 0, 0);
      (-1l, -1l, 0xff, 0xffff);
      (-1l, -1l, -1, -1);
      (Int32.min_int, Int32.max_int, 0x1ff, 0x1ffff);
      (0l, 0l, 0x100, 0x10000);
      (0xffffl, 0l, 0, 0);
      (0l, 0l, 0, 0xffff);
    ]

let test_pseudo_header_allocates_nothing () =
  let src = ip "16.0.0.1" and dst = ip "16.0.0.2" in
  let minor0 = Gc.minor_words () in
  for len = 1 to 1000 do
    ignore (Sys.opaque_identity (Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.protocol_udp ~len))
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. minor0)

(* {1 Full frame} *)

let test_full_frame_sizes () =
  (* An RPC packet with no arguments must be exactly 74 bytes on the
     wire (Eth 14 + IP 20 + UDP 8 + 32-byte RPC header), and a full
     single-packet result exactly 1514 — the paper's packet sizes. *)
  let build rpc_payload_len =
    let w = W.create 2048 in
    Ethernet.encode w
      { Ethernet.dst = Mac.of_station 2; src = Mac.of_station 1; ethertype = Ethernet.ethertype_ipv4 };
    let udp_len = Udp.header_size + 32 + rpc_payload_len in
    Ipv4.encode w (ipv4_header udp_len);
    Udp.encode w ~src:(ip "16.0.0.1") ~dst:(ip "16.0.0.2") ~src_port:530 ~dst_port:530
      ~payload:(fun w -> W.zeros w (32 + rpc_payload_len))
      ();
    W.length w
  in
  Alcotest.(check int) "minimum RPC frame" 74 (build 0);
  Alcotest.(check int) "maximum RPC frame" 1514 (build 1440)

let suite =
  [
    Alcotest.test_case "mac parse/print" `Quick test_mac_parse;
    Alcotest.test_case "mac stations" `Quick test_mac_station_distinct;
    Alcotest.test_case "mac wire format" `Quick test_mac_wire;
    Alcotest.test_case "ethernet roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ethernet truncated" `Quick test_ethernet_truncated;
    Alcotest.test_case "ethernet truncated at every offset" `Quick
      test_ethernet_truncated_every_offset;
    QCheck_alcotest.to_alcotest prop_ethernet_roundtrip;
    Alcotest.test_case "ipv4 addresses" `Quick test_addr;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "ipv4 checksum detects corruption" `Quick
      test_ipv4_checksum_detects_corruption;
    Alcotest.test_case "ipv4 truncated at every offset" `Quick test_ipv4_truncated_every_offset;
    Alcotest.test_case "ipv4 bad version/IHL" `Quick test_ipv4_bad_version_and_ihl;
    Alcotest.test_case "ipv4 fragmented rejected" `Quick test_ipv4_fragmented_rejected;
    Alcotest.test_case "ipv4 bad total length" `Quick test_ipv4_bad_total_length;
    Alcotest.test_case "ipv4 checksum covers every byte" `Quick
      test_ipv4_checksum_covers_every_byte;
    QCheck_alcotest.to_alcotest prop_ipv4_roundtrip;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp checksum detects corruption" `Quick
      test_udp_checksum_detects_payload_corruption;
    Alcotest.test_case "udp pseudo-header binds addresses" `Quick
      test_udp_pseudo_header_binds_addresses;
    Alcotest.test_case "udp without checksums" `Quick test_udp_no_checksum_mode;
    Alcotest.test_case "udp truncated at every offset" `Quick test_udp_truncated_every_offset;
    Alcotest.test_case "udp bad length field" `Quick test_udp_bad_length_field;
    Alcotest.test_case "udp corrupted checksum field" `Quick test_udp_checksum_field_corruption;
    Alcotest.test_case "udp zero-checksum convention (RFC 768)" `Quick
      test_udp_zero_checksum_convention;
    QCheck_alcotest.to_alcotest prop_udp_roundtrip;
    Alcotest.test_case "encoders refuse out-of-range fields" `Quick test_encode_range;
    QCheck_alcotest.to_alcotest prop_pseudo_header_sum;
    Alcotest.test_case "pseudo-header sum at the edges" `Quick test_pseudo_header_edges;
    Alcotest.test_case "pseudo-header sum allocates nothing" `Quick
      test_pseudo_header_allocates_nothing;
    Alcotest.test_case "paper frame sizes (74/1514)" `Quick test_full_frame_sizes;
  ]

let () = Alcotest.run "net" [ ("net", suite) ]
