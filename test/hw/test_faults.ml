(* Direct unit tests for every Ether_link fault kind: Deliver, Drop,
   Corrupt, Corrupt_payload, Duplicate, Delay, Reorder — the vocabulary
   the fault-plan DSL (library check) compiles onto.  Every delivered
   copy, faulted or not, must arrive with the call id it was transmitted
   under. *)

module Engine = Sim.Engine
module Time = Sim.Time
module Ether_link = Hw.Ether_link
module Mac = Net.Mac

let frame ?(fill = '\x00') ~dst ~src ~len () =
  let w = Wire.Bytebuf.Writer.create len in
  Net.Ethernet.encode w { Net.Ethernet.dst; src; ethertype = Net.Ethernet.ethertype_ipv4 };
  Wire.Bytebuf.Writer.string w (String.make (len - Net.Ethernet.header_size) fill);
  Wire.Bytebuf.Writer.contents w

(* The call id the [i]th frame (from 0) of a run is transmitted under. *)
let call_of i = 100 + i

(* Attaches a receiver at [m2] recording arrivals as (time_us, bytes,
   call), and a silent sender at [m1]. *)
let attach_pair eng link ~m1 ~m2 =
  let arrivals = ref [] in
  let _s2 =
    Ether_link.attach link ~mac:m2 ~on_frame_start:(fun ~frame ~call ~wire:_ ->
        arrivals := (Time.since_start_us (Engine.now eng), Bytes.copy frame, call) :: !arrivals)
  in
  let _s1 =
    Ether_link.attach link ~mac:m1 ~on_frame_start:(fun ~frame:_ ~call:_ ~wire:_ -> ())
  in
  arrivals

(* One sender, one receiver, a single-fault injector; returns the
   arrivals as (time_us, bytes, call) in order. *)
let run_with_fault ?(len = 200) ?(frames = 1) fault =
  let eng = Engine.create () in
  let link = Ether_link.create eng ~mbps:10. in
  let m1 = Mac.of_station 1 and m2 = Mac.of_station 2 in
  let arrivals = attach_pair eng link ~m1 ~m2 in
  let first = ref true in
  Ether_link.set_fault_injector link
    (Some
       (fun _ ->
         if !first then begin
           first := false;
           fault
         end
         else Ether_link.Deliver));
  Engine.spawn eng (fun () ->
      for i = 0 to frames - 1 do
        Ether_link.transmit ~call:(call_of i) link ~src:m1 (frame ~dst:m2 ~src:m1 ~len ())
      done);
  Engine.run eng;
  (link, List.rev !arrivals)

let sent_bytes ?fill ~len () =
  frame ?fill ~dst:(Mac.of_station 2) ~src:(Mac.of_station 1) ~len ()

let diff_indices a b =
  if Bytes.length a <> Bytes.length b then
    Alcotest.failf "length changed: %d -> %d" (Bytes.length a) (Bytes.length b);
  let d = ref [] in
  for i = Bytes.length a - 1 downto 0 do
    if Bytes.get a i <> Bytes.get b i then d := i :: !d
  done;
  !d

let check_call what sent got = Alcotest.(check int) (what ^ " keeps its call") sent got

let test_deliver () =
  let link, arrivals = run_with_fault Ether_link.Deliver in
  match arrivals with
  | [ (_, b, c) ] ->
    Alcotest.(check bytes) "delivered unmodified" (sent_bytes ~len:200 ()) b;
    check_call "the frame" (call_of 0) c;
    Alcotest.(check int) "nothing dropped" 0 (Ether_link.frames_dropped link);
    Alcotest.(check int) "nothing corrupted" 0 (Ether_link.frames_corrupted link)
  | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l)

let test_drop () =
  let link, arrivals = run_with_fault Ether_link.Drop in
  Alcotest.(check int) "no arrival" 0 (List.length arrivals);
  Alcotest.(check int) "drop counted" 1 (Ether_link.frames_dropped link);
  Alcotest.(check int) "wire time still elapsed" 1 (Ether_link.frames_carried link)

let test_corrupt () =
  let link, arrivals = run_with_fault Ether_link.Corrupt in
  match arrivals with
  | [ (_, b, c) ] ->
    check_call "the corrupted copy" (call_of 0) c;
    (match diff_indices (sent_bytes ~len:200 ()) b with
    | [ i ] ->
      Alcotest.(check bool) "flip is past the Ethernet header" true
        (i >= Net.Ethernet.header_size)
    | d -> Alcotest.failf "expected exactly 1 flipped byte, got %d" (List.length d));
    Alcotest.(check int) "corruption counted" 1 (Ether_link.frames_corrupted link)
  | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l)

let test_corrupt_payload () =
  let _, arrivals = run_with_fault Ether_link.Corrupt_payload in
  (match arrivals with
  | [ (_, b, c) ] -> (
    check_call "the corrupted copy" (call_of 0) c;
    match diff_indices (sent_bytes ~len:200 ()) b with
    | [ i ] -> Alcotest.(check bool) "flip is past offset 74" true (i >= 74)
    | d -> Alcotest.failf "expected exactly 1 flipped byte, got %d" (List.length d))
  | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l));
  (* A minimum frame has no payload past 74: delivered unmodified. *)
  let link, arrivals = run_with_fault ~len:74 Ether_link.Corrupt_payload in
  match arrivals with
  | [ (_, b, c) ] ->
    Alcotest.(check bytes) "headers-only frame untouched" (sent_bytes ~len:74 ()) b;
    check_call "the untouched frame" (call_of 0) c;
    Alcotest.(check int) "not counted as corrupted" 0 (Ether_link.frames_corrupted link)
  | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l)

let test_duplicate () =
  let link, arrivals = run_with_fault Ether_link.Duplicate in
  match arrivals with
  | [ (t1, b1, c1); (t2, b2, c2) ] ->
    Alcotest.(check bytes) "first copy intact" (sent_bytes ~len:200 ()) b1;
    Alcotest.(check bytes) "second copy identical" b1 b2;
    check_call "the first copy" (call_of 0) c1;
    check_call "the duplicate" (call_of 0) c2;
    (* 200 bytes at 10 Mbit/s = 160 us wire + 9.6 us gap. *)
    Alcotest.(check bool) "second copy a full frame time later" true (t2 -. t1 >= 160.);
    Alcotest.(check int) "duplicate counted" 1 (Ether_link.frames_duplicated link);
    Alcotest.(check int) "both copies carried" 2 (Ether_link.frames_carried link)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_delay_reorders () =
  (* Frame 1 is held for 500 us; frame 2, sent right behind it, arrives
     first — the reordering case duplicate suppression must survive. *)
  let link, arrivals = run_with_fault ~frames:2 (Ether_link.Delay (Time.us 500)) in
  match arrivals with
  | [ (t1, _, c1); (t2, _, c2) ] ->
    Alcotest.(check bool) "second frame overtakes the delayed one" true (t1 < t2);
    check_call "the overtaking frame" (call_of 1) c1;
    check_call "the delayed copy" (call_of 0) c2;
    Alcotest.(check (float 1.)) "delayed frame arrives at its hold time" 500. t2;
    Alcotest.(check int) "delay counted" 1 (Ether_link.frames_delayed link)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_reorder_swaps () =
  (* Frame A is marked Reorder; frame B, sent right behind it, must
     arrive first, with A released the instant B is delivered. *)
  let eng = Engine.create () in
  let link = Ether_link.create eng ~mbps:10. in
  let m1 = Mac.of_station 1 and m2 = Mac.of_station 2 in
  let arrivals = attach_pair eng link ~m1 ~m2 in
  let first = ref true in
  Ether_link.set_fault_injector link
    (Some
       (fun _ ->
         if !first then begin
           first := false;
           Ether_link.Reorder
         end
         else Ether_link.Deliver));
  Engine.spawn eng (fun () ->
      Ether_link.transmit ~call:(call_of 0) link ~src:m1
        (frame ~fill:'A' ~dst:m2 ~src:m1 ~len:200 ());
      Ether_link.transmit ~call:(call_of 1) link ~src:m1
        (frame ~fill:'B' ~dst:m2 ~src:m1 ~len:200 ()));
  Engine.run eng;
  match List.rev !arrivals with
  | [ (t1, b1, c1); (t2, b2, c2) ] ->
    Alcotest.(check bytes) "the overtaking frame arrives first" (sent_bytes ~fill:'B' ~len:200 ())
      b1;
    Alcotest.(check bytes) "the held frame follows intact" (sent_bytes ~fill:'A' ~len:200 ()) b2;
    check_call "the overtaking frame" (call_of 1) c1;
    check_call "the held copy" (call_of 0) c2;
    Alcotest.(check bool) "released together, not at the backstop" true (t2 -. t1 < 1. && t2 < 1000.);
    Alcotest.(check int) "reorder counted" 1 (Ether_link.frames_reordered link)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_reorder_backstop () =
  (* No second frame ever comes: the held frame must not vanish — the
     1 ms backstop releases it. *)
  let link, arrivals = run_with_fault Ether_link.Reorder in
  match arrivals with
  | [ (t, b, c) ] ->
    Alcotest.(check bytes) "delivered intact" (sent_bytes ~len:200 ()) b;
    check_call "the held copy" (call_of 0) c;
    Alcotest.(check (float 1.)) "released at the 1 ms backstop" 1000. t;
    Alcotest.(check int) "reorder counted" 1 (Ether_link.frames_reordered link)
  | l -> Alcotest.failf "expected 1 arrival, got %d" (List.length l)

let test_delay_negative_rejected () =
  Alcotest.(check bool) "negative delay refused" true
    (try
       ignore (run_with_fault (Ether_link.Delay (Time.span_sub Time.zero_span (Time.us 1))));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "Deliver" `Quick test_deliver;
    Alcotest.test_case "Drop" `Quick test_drop;
    Alcotest.test_case "Corrupt" `Quick test_corrupt;
    Alcotest.test_case "Corrupt_payload" `Quick test_corrupt_payload;
    Alcotest.test_case "Duplicate" `Quick test_duplicate;
    Alcotest.test_case "Delay reorders" `Quick test_delay_reorders;
    Alcotest.test_case "Reorder swaps adjacent frames" `Quick test_reorder_swaps;
    Alcotest.test_case "Reorder backstop" `Quick test_reorder_backstop;
    Alcotest.test_case "Delay rejects negative spans" `Quick test_delay_negative_rejected;
  ]
