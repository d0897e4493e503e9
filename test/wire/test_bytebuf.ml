module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader

let test_write_read_roundtrip () =
  let w = W.create 64 in
  W.u8 w 0xab;
  W.u16 w 0x1234;
  W.u32 w 0xdeadbeefl;
  W.string w "hello";
  W.zeros w 3;
  Alcotest.(check int) "length" (1 + 2 + 4 + 5 + 3) (W.length w);
  let r = R.of_bytes (W.contents w) in
  Alcotest.(check int) "u8" 0xab (R.u8 r);
  Alcotest.(check int) "u16" 0x1234 (R.u16 r);
  Alcotest.(check int32) "u32" 0xdeadbeefl (R.u32 r);
  Alcotest.(check string) "string" "hello" (R.string r 5);
  Alcotest.(check string) "zeros" "\000\000\000" (R.string r 3);
  R.expect_end r

let test_big_endian_layout () =
  let w = W.create 8 in
  W.u16 w 0x0102;
  W.u32 w 0x03040506l;
  Alcotest.(check string) "network byte order" "\x01\x02\x03\x04\x05\x06"
    (Bytes.to_string (W.contents w))

let test_patch () =
  let w = W.create 8 in
  W.u16 w 0;
  W.u16 w 0xaaaa;
  W.patch_u16 w ~pos:0 0x4242;
  let r = R.of_bytes (W.contents w) in
  Alcotest.(check int) "patched" 0x4242 (R.u16 r);
  Alcotest.(check int) "untouched" 0xaaaa (R.u16 r);
  Alcotest.(check bool) "patch past end rejected" true
    (try
       W.patch_u16 w ~pos:3 0;
       false
     with Invalid_argument _ -> true)

let test_overflow () =
  let w = W.create 2 in
  W.u16 w 7;
  Alcotest.(check bool) "writer overflow" true
    (try
       W.u8 w 1;
       false
     with Wire.Bytebuf.Overflow _ -> true);
  let r = R.of_bytes (Bytes.create 1) in
  Alcotest.(check bool) "reader overflow" true
    (try
       ignore (R.u16 r);
       false
     with Wire.Bytebuf.Overflow _ -> true)

let test_ranges () =
  Alcotest.(check bool) "u8 range" true
    (try
       W.u8 (W.create 4) 256;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "u16 range" true
    (try
       W.u16 (W.create 4) (-1);
       false
     with Invalid_argument _ -> true)

let test_reader_window () =
  let data = Bytes.of_string "abcdef" in
  let r = R.of_bytes ~pos:2 ~len:3 data in
  Alcotest.(check int) "remaining" 3 (R.remaining r);
  Alcotest.(check string) "windowed" "cde" (R.string r 3);
  Alcotest.(check int) "position relative" 3 (R.position r);
  Alcotest.(check bool) "expect_end on trailing" true
    (let r2 = R.of_bytes data in
     try
       R.expect_end r2;
       false
     with Wire.Bytebuf.Overflow _ -> true)

let test_sub_and_skip () =
  let w = W.create 16 in
  W.sub w (Bytes.of_string "xxpayloadxx") ~pos:2 ~len:7;
  let r = R.of_bytes (W.contents w) in
  R.skip r 2;
  Alcotest.(check string) "sub + skip" "yload" (R.string r 5)

(* A claimed window is an absolute offset into the shared buffer, for a
   writer laid over a buffer at an offset and a reader over a window of
   a larger one; a claim that does not fit raises and moves nothing. *)
let test_claim () =
  let buf = Bytes.make 12 '.' in
  let w = W.over buf ~pos:3 in
  W.u8 w 0x41;
  let o = W.claim w 4 in
  Alcotest.(check int) "writer offset is absolute" 4 o;
  Alcotest.(check bool) "writer buffer is shared" true (W.unsafe_buffer w == buf);
  Bytes.blit_string "BCDE" 0 buf o 4;
  Alcotest.(check int) "writer length" 5 (W.length w);
  W.u8 w 0x46;
  Alcotest.(check string) "window in place" "...ABCDEF..." (Bytes.to_string buf);
  Alcotest.(check bool) "writer overflow" true
    (match W.claim w 4 with _ -> false | exception Wire.Bytebuf.Overflow _ -> true);
  Alcotest.(check int) "writer unchanged" 6 (W.length w);
  Alcotest.(check int) "empty claim" 9 (W.claim w 0);
  Alcotest.check_raises "writer negative" (Invalid_argument "Bytebuf.Writer.claim: negative length")
    (fun () -> ignore (W.claim w (-1)));
  let r = R.of_view (Wire.Bytebuf.View.of_bytes buf ~pos:2 ~len:8) in
  ignore (R.u8 r);
  let o = R.claim r 5 in
  Alcotest.(check int) "reader offset is absolute" 3 o;
  Alcotest.(check string) "reader window" "ABCDE" (Bytes.sub_string (R.unsafe_buffer r) o 5);
  Alcotest.(check int) "reader position" 6 (R.position r);
  Alcotest.(check bool) "reader overflow" true
    (match R.claim r 3 with _ -> false | exception Wire.Bytebuf.Overflow _ -> true);
  Alcotest.(check int) "reader unchanged" 2 (R.remaining r);
  Alcotest.(check int) "reader takes the rest" 8 (R.claim r 2);
  R.expect_end r;
  Alcotest.check_raises "reader negative" (Invalid_argument "Bytebuf.Reader.claim: negative length")
    (fun () -> ignore (R.claim r (-1)))

let prop_roundtrip =
  QCheck.Test.make ~name:"u16 roundtrip" ~count:500
    QCheck.(int_bound 0xffff)
    (fun v ->
      let w = W.create 2 in
      W.u16 w v;
      R.u16 (R.of_bytes (W.contents w)) = v)

(* {1 Whole-script roundtrip property} *)

type op = Op_u8 of int | Op_u16 of int | Op_u32 of int32 | Op_str of string

let op_size = function
  | Op_u8 _ -> 1
  | Op_u16 _ -> 2
  | Op_u32 _ -> 4
  | Op_str s -> String.length s

let print_op = function
  | Op_u8 v -> Printf.sprintf "u8 %#x" v
  | Op_u16 v -> Printf.sprintf "u16 %#x" v
  | Op_u32 v -> Printf.sprintf "u32 %#lx" v
  | Op_str s -> Printf.sprintf "str %S" s

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Op_u8 v) (int_bound 0xff);
        map (fun v -> Op_u16 v) (int_bound 0xffff);
        map (fun v -> Op_u32 (Int32.logxor (Int32.of_int v) 0x5a5a5a5al)) (int_bound 0x3fffffff);
        map (fun s -> Op_str s) (string_size (int_bound 12));
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_bound 24) gen_op)

let prop_script_roundtrip =
  QCheck.Test.make ~name:"any write script reads back verbatim" ~count:300 arb_script
    (fun ops ->
      let total = List.fold_left (fun a op -> a + op_size op) 0 ops in
      let w = W.create total in
      List.iter
        (function
          | Op_u8 v -> W.u8 w v
          | Op_u16 v -> W.u16 w v
          | Op_u32 v -> W.u32 w v
          | Op_str s -> W.string w s)
        ops;
      let r = R.of_bytes (W.contents w) in
      let ok =
        List.for_all
          (function
            | Op_u8 v -> R.u8 r = v
            | Op_u16 v -> R.u16 r = v
            | Op_u32 v -> R.u32 r = v
            | Op_str s -> R.string r (String.length s) = s)
          ops
      in
      R.expect_end r;
      ok && W.length w = total && R.position r = total)

(* {1 Non-copying views and sub-readers} *)

module V = Wire.Bytebuf.View

let test_view_basics () =
  let data = Bytes.of_string "abcdefgh" in
  let v = V.of_bytes ~pos:2 ~len:4 data in
  Alcotest.(check int) "length" 4 (V.length v);
  Alcotest.(check string) "to_string" "cdef" (V.to_string v);
  Alcotest.(check string) "to_bytes copies content" "cdef"
    (Bytes.to_string (V.to_bytes v));
  Alcotest.(check char) "get" 'e' (V.get v 2);
  Alcotest.(check bool) "equal_bytes" true (V.equal_bytes v (Bytes.of_string "cdef"));
  Alcotest.(check bool) "equal_bytes mismatch" false
    (V.equal_bytes v (Bytes.of_string "cdeX"));
  Alcotest.(check int) "empty view" 0 (V.length V.empty)

let test_view_is_zero_copy () =
  (* A view aliases its buffer: mutating the buffer shows through.
     Production frames are never mutated after delivery, but the test
     proves no copy was taken. *)
  let data = Bytes.of_string "abcdefgh" in
  let v = V.of_bytes ~pos:2 ~len:4 data in
  Alcotest.(check bool) "shares buffer" true (V.buffer v == data);
  Alcotest.(check int) "offset" 2 (V.offset v);
  Bytes.set data 3 'X';
  Alcotest.(check string) "alias sees mutation" "cXef" (V.to_string v);
  (* to_bytes, by contrast, is an independent copy. *)
  let copy = V.to_bytes v in
  Bytes.set data 4 'Y';
  Alcotest.(check string) "copy unaffected" "cXef" (Bytes.to_string copy)

let test_view_sub () =
  let v = V.of_bytes ~pos:1 ~len:6 (Bytes.of_string "_abcdef_") in
  let s = V.sub v ~pos:2 ~len:3 in
  Alcotest.(check string) "nested window" "cde" (V.to_string s);
  Alcotest.(check bool) "sub out of range" true
    (try
       ignore (V.sub v ~pos:4 ~len:3);
       false
     with Invalid_argument _ -> true)

let test_view_reassembly () =
  (* blit is the single copy fragment reassembly performs: each fragment
     goes to its offset in one exact-size buffer. *)
  let buf = Bytes.create 6 in
  V.blit (V.of_bytes ~pos:0 ~len:3 (Bytes.of_string "abcXX")) ~dst:buf ~dst_pos:0;
  V.blit (V.of_bytes ~pos:2 ~len:3 (Bytes.of_string "XXdef")) ~dst:buf ~dst_pos:3;
  Alcotest.(check string) "reassembled" "abcdef" (Bytes.to_string buf);
  let dst = Bytes.make 6 '.' in
  V.blit (V.of_bytes ~pos:1 ~len:4 (Bytes.of_string "_wxyz_")) ~dst ~dst_pos:1;
  Alcotest.(check string) "blit" ".wxyz." (Bytes.to_string dst)

let test_reader_view_and_of_view () =
  let r = R.of_bytes (Bytes.of_string "aabbccdd") in
  R.skip r 2;
  let v = R.view r 4 in
  Alcotest.(check string) "view consumes" "bbcc" (V.to_string v);
  Alcotest.(check int) "parent advanced" 2 (R.remaining r);
  (* of_view gives an independent cursor each time. *)
  let r1 = R.of_view v and r2 = R.of_view v in
  Alcotest.(check string) "cursor 1" "bbcc" (R.string r1 4);
  Alcotest.(check string) "cursor 2 independent" "bb" (R.string r2 2)

let test_sub_reader_hard_bound () =
  (* The sub-reader's window is a hard bound even though the parent has
     more data after it. *)
  let r = R.of_bytes (Bytes.of_string "aabbccddee") in
  R.skip r 2;
  let sr = R.sub_reader r 4 in
  Alcotest.(check int) "parent skipped past window" 4 (R.remaining r);
  Alcotest.(check string) "sub-reader content" "bbcc" (R.string sr 4);
  Alcotest.(check bool) "overflow past window" true
    (try
       ignore (R.u8 sr);
       false
     with Wire.Bytebuf.Overflow _ -> true);
  (* expect_end succeeds exactly at the window boundary. *)
  R.expect_end sr

let arb_window =
  (* A buffer plus a window (pos, len) inside it. *)
  QCheck.make
    ~print:(fun (s, pos, len) -> Printf.sprintf "(%S, pos=%d, len=%d)" s pos len)
    QCheck.Gen.(
      string_size (int_range 1 64) >>= fun s ->
      int_bound (String.length s) >>= fun pos ->
      int_bound (String.length s - pos) >>= fun len -> return (s, pos, len))

let prop_view_equals_bytes_sub =
  QCheck.Test.make ~name:"view contents = Bytes.sub" ~count:500 arb_window
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      let v = V.of_bytes ~pos ~len b in
      Bytes.equal (V.to_bytes v) (Bytes.sub b pos len)
      && V.equal_bytes v (Bytes.sub b pos len)
      && V.length v = len)

let prop_sub_reader_confined =
  QCheck.Test.make ~name:"sub_reader confined to its window" ~count:500 arb_window
    (fun (s, pos, len) ->
      let r = R.of_bytes (Bytes.of_string s) in
      R.skip r pos;
      let sr = R.sub_reader r len in
      (* Reading exactly [len] bytes succeeds and matches the source... *)
      let got = R.string sr len in
      let confined =
        (* ...and one more byte always overflows, parent data or not. *)
        try
          ignore (R.u8 sr);
          false
        with Wire.Bytebuf.Overflow _ -> true
      in
      got = String.sub s pos len
      && confined
      && R.remaining r = String.length s - pos - len)

let suite =
  [
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "big-endian layout" `Quick test_big_endian_layout;
    Alcotest.test_case "patch_u16" `Quick test_patch;
    Alcotest.test_case "overflow" `Quick test_overflow;
    Alcotest.test_case "range validation" `Quick test_ranges;
    Alcotest.test_case "reader window" `Quick test_reader_window;
    Alcotest.test_case "sub and skip" `Quick test_sub_and_skip;
    Alcotest.test_case "claimed windows" `Quick test_claim;
    Alcotest.test_case "view basics" `Quick test_view_basics;
    Alcotest.test_case "view is zero-copy" `Quick test_view_is_zero_copy;
    Alcotest.test_case "view sub-window" `Quick test_view_sub;
    Alcotest.test_case "view reassembly helpers" `Quick test_view_reassembly;
    Alcotest.test_case "reader view / of_view" `Quick test_reader_view_and_of_view;
    Alcotest.test_case "sub_reader hard bound" `Quick test_sub_reader_hard_bound;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_script_roundtrip;
    QCheck_alcotest.to_alcotest prop_view_equals_bytes_sub;
    QCheck_alcotest.to_alcotest prop_sub_reader_confined;
  ]
