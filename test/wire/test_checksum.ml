module C = Wire.Checksum

(* The pairwise definition, one big-endian word per step: the
   reference the 32-bytes-per-step [Wire.Checksum.sum] must equal for
   every input. *)
let reference_sum ?(init = 0) b ~pos ~len =
  let fold s =
    let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
    go s
  in
  let s = ref init in
  let i = ref pos in
  let stop = pos + len - 1 in
  while !i < stop do
    s := !s + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if len land 1 = 1 then s := !s + (Char.code (Bytes.get b (pos + len - 1)) lsl 8);
  fold !s

(* RFC 1071 worked example: the sum of 00-01 f2-03 f4-f5 f6-f7 is
   ddf2 before complement, so the checksum is 220d. *)
let test_rfc1071_example () =
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "running sum" 0xddf2 (C.sum b ~pos:0 ~len:8);
  Alcotest.(check int) "checksum" 0x220d (C.checksum b ~pos:0 ~len:8)

let test_odd_length () =
  (* The trailing odd byte pads with zero on the right (high octet). *)
  let b = Bytes.of_string "\x01\x02\x03" in
  Alcotest.(check int) "odd tail" (0x0102 + 0x0300) (C.sum b ~pos:0 ~len:3)

let test_zero_length () =
  Alcotest.(check int) "empty sum" 0 (C.sum Bytes.empty ~pos:0 ~len:0);
  Alcotest.(check int) "empty checksum" 0xffff (C.checksum Bytes.empty ~pos:0 ~len:0)

let test_init_composes () =
  let b = Bytes.of_string "\x12\x34\x56\x78\x9a\xbc" in
  let whole = C.sum b ~pos:0 ~len:6 in
  let part1 = C.sum b ~pos:0 ~len:4 in
  let part2 = C.sum ~init:part1 b ~pos:4 ~len:2 in
  Alcotest.(check int) "split sum equals whole" whole part2

let test_bad_range () =
  (* Including ranges whose end [pos + len] overflows. *)
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d, len %d" pos len)
        (Invalid_argument "Checksum.sum: bad range")
        (fun () -> ignore (C.sum (Bytes.create 4) ~pos ~len)))
    [ (2, 4); (-1, 2); (0, -1); (max_int, 1); (max_int, 2); (1, max_int) ]

let embed_checksum data ~at =
  let b = Bytes.copy data in
  Bytes.set_uint16_be b at 0;
  let cks = C.checksum b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set_uint16_be b at cks;
  b

let gen_packet =
  QCheck.Gen.(
    let* n = int_range 2 256 in
    let* n = return (n land lnot 1) in
    (* even length with room for the field *)
    let* bytes_list = list_size (return n) (int_bound 255) in
    return (Bytes.init n (fun i -> Char.chr (List.nth bytes_list i))))

let arb_packet = QCheck.make ~print:(fun b -> Wire.Hexdump.to_string b) gen_packet

let prop_verify_of_valid =
  QCheck.Test.make ~name:"verify accepts correctly-checksummed data" ~count:200 arb_packet
    (fun data ->
      let b = embed_checksum data ~at:0 in
      C.verify b ~pos:0 ~len:(Bytes.length b))

let prop_detects_single_flip =
  QCheck.Test.make ~name:"verify rejects any single-byte corruption" ~count:200
    QCheck.(pair arb_packet (int_bound 10_000))
    (fun (data, r) ->
      let b = embed_checksum data ~at:0 in
      let n = Bytes.length b in
      let i = r mod n in
      let old = Char.code (Bytes.get b i) in
      (* A single-byte change alters the ones-complement sum by at most
         0xff00 in magnitude, which is never a multiple of 0xffff, so
         every single-byte corruption must be detected. *)
      let flip = (old + 1 + (r mod 255)) land 0xff in
      QCheck.assume (flip <> old);
      Bytes.set b i (Char.chr flip);
      not (C.verify b ~pos:0 ~len:n))

let prop_finish_idempotent_range =
  QCheck.Test.make ~name:"checksum always fits 16 bits" ~count:200 arb_packet (fun b ->
      let c = C.checksum b ~pos:0 ~len:(Bytes.length b) in
      c >= 0 && c <= 0xffff)

let gen_any_bytes =
  (* Unlike [gen_packet], odd lengths and the empty buffer included —
     the identities below must survive the odd-tail fold. *)
  QCheck.Gen.(
    let* n = int_range 0 257 in
    let* bytes_list = list_size (return n) (int_bound 255) in
    return (Bytes.init n (fun i -> Char.chr (List.nth bytes_list i))))

let arb_any_bytes = QCheck.make ~print:(fun b -> Wire.Hexdump.to_string b) gen_any_bytes

let prop_zero_padding_invariant =
  (* RFC 1071: the sum of a message is unchanged by appended zero bytes
     (an odd tail folds as the high octet, so the first pad byte
     completes that word with a zero low octet). *)
  QCheck.Test.make ~name:"appending zero bytes never changes the sum" ~count:300
    QCheck.(pair arb_any_bytes (int_bound 8))
    (fun (b, pad) ->
      let n = Bytes.length b in
      let padded = Bytes.make (n + pad) '\x00' in
      Bytes.blit b 0 padded 0 n;
      C.sum padded ~pos:0 ~len:(n + pad) = C.sum b ~pos:0 ~len:n
      && C.checksum padded ~pos:0 ~len:(n + pad) = C.checksum b ~pos:0 ~len:n)

let prop_incremental_equals_full =
  (* Incremental update: summing a prefix and threading it through
     [~init] for the suffix equals one pass over the whole range, for
     any even split point (the stack sums pseudo-header and payload in
     exactly this way). *)
  QCheck.Test.make ~name:"incremental sum equals full recompute" ~count:300
    QCheck.(pair arb_any_bytes (int_bound 10_000))
    (fun (b, r) ->
      let n = Bytes.length b in
      let split = 2 * (r mod ((n / 2) + 1)) in
      let prefix = C.sum b ~pos:0 ~len:split in
      C.sum ~init:prefix b ~pos:split ~len:(n - split) = C.sum b ~pos:0 ~len:n)

(* Buffers of 0-1600 bytes (a 1514-byte frame and more), summed from
   any offset, odd ones included, over any length, with an [init] up to
   four times a folded sum: every path through the 32-byte loop, its
   8-byte and 16-bit tails and the odd last byte, against the pairwise
   definition. *)
let gen_range =
  QCheck.Gen.(
    let* s = string_size ~gen:char (int_range 0 1600) in
    let n = String.length s in
    let* pos = int_range 0 n in
    let* len = int_range 0 (n - pos) in
    let* init = oneof [ return 0; int_range 0 0x3ffff ] in
    return (Bytes.of_string s, pos, len, init))

let arb_range =
  QCheck.make
    ~print:(fun (b, pos, len, init) ->
      Printf.sprintf "%d-byte buffer, pos %d, len %d, init 0x%x:\n%s" (Bytes.length b) pos len
        init (Wire.Hexdump.to_string b))
    gen_range

let prop_equals_pairwise =
  QCheck.Test.make ~name:"word-wide sum equals the pairwise definition" ~count:1000 arb_range
    (fun (b, pos, len, init) -> C.sum ~init b ~pos ~len = reference_sum ~init b ~pos ~len)

(* The two ones-complement zeros: an all-0x00 range sums to 0x0000 and
   an even-length all-0xff one to 0xffff (an odd one leaves its last
   byte's 0xff00), at every alignment of an 8-byte load and at lengths
   up to 100, so every tail a 32-byte step can leave is met at least
   twice. *)
let test_uniform_buffers () =
  List.iter
    (fun byte ->
      for n = 0 to 100 do
        let b = Bytes.make (n + 8) byte in
        for pos = 0 to 7 do
          List.iter
            (fun init ->
              Alcotest.(check int)
                (Printf.sprintf "%C x %d at %d, init 0x%x" byte n pos init)
                (reference_sum ~init b ~pos ~len:n) (C.sum ~init b ~pos ~len:n))
            [ 0; 1; 0xfffe; 0xffff; 0x3ffff ]
        done;
        let expected =
          if byte = '\x00' || n = 0 then 0 else if n land 1 = 1 then 0xff00 else 0xffff
        in
        Alcotest.(check int) (Printf.sprintf "%C x %d" byte n) expected (C.sum b ~pos:0 ~len:n)
      done)
    [ '\x00'; '\xff' ]

(* The loop's speed rests on its 64-bit loads staying unboxed. *)
let test_sum_allocates_nothing () =
  let b = Bytes.init 1514 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let minor0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (C.sum b ~pos:34 ~len:1480))
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. minor0)

let suite =
  [
    Alcotest.test_case "RFC 1071 example" `Quick test_rfc1071_example;
    Alcotest.test_case "odd length" `Quick test_odd_length;
    Alcotest.test_case "zero length" `Quick test_zero_length;
    Alcotest.test_case "init composes" `Quick test_init_composes;
    Alcotest.test_case "bad range" `Quick test_bad_range;
    QCheck_alcotest.to_alcotest prop_verify_of_valid;
    QCheck_alcotest.to_alcotest prop_detects_single_flip;
    QCheck_alcotest.to_alcotest prop_finish_idempotent_range;
    QCheck_alcotest.to_alcotest prop_zero_padding_invariant;
    QCheck_alcotest.to_alcotest prop_incremental_equals_full;
    QCheck_alcotest.to_alcotest prop_equals_pairwise;
    Alcotest.test_case "all-0x00 and all-0xff buffers" `Quick test_uniform_buffers;
    Alcotest.test_case "sum allocates nothing" `Quick test_sum_allocates_nothing;
  ]
