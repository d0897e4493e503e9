module Stats = Sim.Stats
module Trace = Sim.Trace
module Time = Sim.Time

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  Alcotest.(check int) "value" 5 (Stats.Counter.value c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.value c)

let test_percentile () =
  let sorted = [| 10; 20; 30; 40 |] in
  (* Rank ceil(4p), clamped to [1, 4]. *)
  Alcotest.(check (list int)) "nearest rank" [ 10; 10; 20; 20; 30; 40; 40 ]
    (List.map (Stats.percentile sorted) [ 0.; 0.25; 0.26; 0.5; 0.75; 0.76; 1. ]);
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.percentile: no samples")
    (fun () -> ignore (Stats.percentile [||] 0.5));
  Alcotest.check_raises "p above 1 raises" (Invalid_argument "Stats.percentile: p outside [0,1]")
    (fun () -> ignore (Stats.percentile sorted 1.5))

let test_level () =
  let at n = Time.of_ns_since_start n in
  let l = Stats.Level.create ~initial:0. ~at:(at 0) in
  Stats.Level.set l 2. ~at:(at 1_000_000_000);
  Stats.Level.set l 1. ~at:(at 3_000_000_000);
  (* 1s at 0, 2s at 2, 1s at 1 => integral 5 level-seconds over 4s. *)
  Alcotest.(check (float 1e-9)) "integral" 5. (Stats.Level.integral l ~upto:(at 4_000_000_000));
  Alcotest.(check (float 1e-9)) "average" 1.25 (Stats.Level.average l ~upto:(at 4_000_000_000));
  Alcotest.(check (float 0.)) "current" 1. (Stats.Level.current l)

let test_level_out_of_order () =
  let at n = Time.of_ns_since_start n in
  let l = Stats.Level.create ~initial:1. ~at:(at 0) in
  Stats.Level.set l 3. ~at:(at 2_000_000_000);
  (* A set with a timestamp before the last change must not subtract
     area: it only switches the current level. *)
  Stats.Level.set l 2. ~at:(at 1_000_000_000);
  Alcotest.(check (float 0.)) "current follows the late set" 2. (Stats.Level.current l);
  (* Queries at or before the last change return the accumulated area
     (2 level-seconds from the first segment), never less. *)
  Alcotest.(check (float 1e-9)) "integral clamped at changed_at" 2.
    (Stats.Level.integral l ~upto:(at 1_500_000_000));
  (* 1s more at level 2 after the clamp point. *)
  Alcotest.(check (float 1e-9)) "integral resumes past changed_at" 4.
    (Stats.Level.integral l ~upto:(at 3_000_000_000));
  Alcotest.(check (float 1e-9)) "average over full window" (4. /. 3.)
    (Stats.Level.average l ~upto:(at 3_000_000_000))

(* [set] writes both floats in place: with constant levels (statically
   allocated, so the call boxes nothing) no set allocates a word. *)
let test_level_set_zero_alloc () =
  let l = Stats.Level.create ~initial:0. ~at:Time.zero in
  let set i = Stats.Level.set l (if i land 1 = 0 then 1. else 0.) ~at:(Time.of_ns_since_start i) in
  for i = 1 to 10 do
    set i
  done;
  let minor0 = Gc.minor_words () in
  for i = 11 to 1_010 do
    set i
  done;
  let minor = Gc.minor_words () -. minor0 in
  Alcotest.(check (float 0.)) "minor words" 0. minor;
  (* Level 1 for 1 ns after each even instant from 2 to 1,008. *)
  Alcotest.(check (float 1e-15)) "integral" 504e-9
    (Stats.Level.integral l ~upto:(Time.of_ns_since_start 1_010))

(* The level arithmetic as it stood with [level] and [area] as float
   fields of the mixed record: the flat record must give the same IEEE
   results, bit for bit. *)
module Level_reference = struct
  type t = {
    start_at : Time.t;
    mutable level : float;
    mutable changed_at : Time.t;
    mutable area : float;
  }

  let create ~initial ~at = { start_at = at; level = initial; changed_at = at; area = 0. }

  let accumulate t ~upto =
    if Time.compare upto t.changed_at > 0 then begin
      t.area <- t.area +. (t.level *. Time.to_sec (Time.diff upto t.changed_at));
      t.changed_at <- upto
    end

  let set t v ~at =
    accumulate t ~upto:at;
    t.level <- v

  let integral t ~upto =
    if Time.compare upto t.changed_at <= 0 then t.area
    else t.area +. (t.level *. Time.to_sec (Time.diff upto t.changed_at))

  let average t ~upto =
    let dur = Time.to_sec (Time.diff upto t.start_at) in
    if dur <= 0. then 0. else integral t ~upto /. dur
end

(* Steps move the clock back as well as forward (out-of-order sets),
   and levels include fractions, so rounding is exercised. *)
let prop_level_matches_reference =
  let gen =
    QCheck.Gen.(
      pair (float_bound_inclusive 8.)
        (list_size (int_range 0 60)
           (triple (int_range (-2_000) 1_000_000) (float_bound_inclusive 8.) (int_bound 3_000_000))))
  in
  QCheck.Test.make ~name:"level integral and average match the mixed-record arithmetic" ~count:500
    (QCheck.make gen) (fun (initial, steps) ->
      let start = Time.of_ns_since_start 1_000 in
      let l = Stats.Level.create ~initial ~at:start in
      let r = Level_reference.create ~initial ~at:start in
      let clock = ref 1_000 in
      List.for_all
        (fun (step, v, ahead) ->
          clock := max 0 (!clock + step);
          let at = Time.of_ns_since_start !clock in
          Stats.Level.set l v ~at;
          Level_reference.set r v ~at;
          let upto = Time.of_ns_since_start (!clock + ahead - 1_000) in
          Int64.equal
            (Int64.bits_of_float (Stats.Level.integral l ~upto))
            (Int64.bits_of_float (Level_reference.integral r ~upto))
          && Int64.equal
               (Int64.bits_of_float (Stats.Level.average l ~upto))
               (Int64.bits_of_float (Level_reference.average r ~upto))
          && Stats.Level.current l = v)
        steps)

(* Summed duration (ns) of the recorded spans satisfying [p]. *)
let total_ns tr p =
  List.fold_left
    (fun acc s -> if p s then acc + Time.to_ns (Trace.duration s) else acc)
    0 (Trace.spans tr)

let labels tr = List.map (fun s -> s.Trace.label) (Trace.spans tr)

let test_trace_empty () =
  let tr = Trace.create () in
  Alcotest.(check int) "total of empty trace is zero" 0 (total_ns tr (fun _ -> true));
  Alcotest.(check (list string)) "no labels" [] (labels tr);
  (* Disabled (the default): adds are dropped, so nothing is recorded. *)
  let at n = Time.of_ns_since_start n in
  Trace.add tr ~cat:"send" ~label:"checksum" ~site:"caller" ~start_at:(at 0) ~stop_at:(at 9);
  Alcotest.(check bool) "tracing off by default" false (Trace.enabled tr);
  Alcotest.(check int) "still zero after dropped add" 0 (total_ns tr (fun _ -> true));
  Alcotest.(check int) "length agrees" 0 (Trace.length tr)

let test_trace () =
  let tr = Trace.create () in
  let at n = Time.of_ns_since_start n in
  Trace.add tr ~cat:"x" ~label:"ignored while off" ~site:"m" ~start_at:(at 0) ~stop_at:(at 5);
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Trace.spans tr));
  Trace.set_enabled tr true;
  Trace.add tr ~cat:"send" ~label:"checksum" ~site:"caller" ~start_at:(at 0) ~stop_at:(at 45_000);
  Trace.add tr ~cat:"send" ~label:"checksum" ~site:"server" ~start_at:(at 50_000)
    ~stop_at:(at 95_000);
  Trace.add tr ~cat:"runtime" ~label:"starter" ~site:"caller" ~start_at:(at 100_000)
    ~stop_at:(at 228_000);
  Alcotest.(check int) "three spans" 3 (List.length (Trace.spans tr));
  let checksum s = String.equal s.Trace.label "checksum" in
  Alcotest.(check int) "sum by label" 90_000 (total_ns tr checksum);
  Alcotest.(check int) "filter by site" 45_000
    (total_ns tr (fun s -> checksum s && String.equal s.Trace.site "caller"));
  Alcotest.(check int) "filter by cat" 128_000
    (total_ns tr (fun s -> String.equal s.Trace.cat "runtime"));
  Alcotest.(check (list string))
    "labels in recording order" [ "checksum"; "checksum"; "starter" ] (labels tr);
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.spans tr))

let test_trace_capacity () =
  let at n = Time.of_ns_since_start n in
  let tr = Trace.create ~capacity:2 () in
  Trace.set_enabled tr true;
  Trace.add tr ~cat:"c" ~label:"a" ~site:"m" ~start_at:(at 0) ~stop_at:(at 10);
  Trace.add tr ~cat:"c" ~label:"b" ~site:"m" ~start_at:(at 10) ~stop_at:(at 20);
  Trace.add tr ~cat:"c" ~label:"c" ~site:"m" ~start_at:(at 20) ~stop_at:(at 30);
  Trace.add tr ~cat:"c" ~label:"d" ~site:"m" ~start_at:(at 30) ~stop_at:(at 40);
  Alcotest.(check int) "capacity bounds retained spans" 2 (Trace.length tr);
  Alcotest.(check int) "overflow is counted" 2 (Trace.dropped tr);
  (* The earliest spans are the ones kept. *)
  Alcotest.(check (list string)) "earliest spans retained" [ "a"; "b" ] (labels tr);
  Trace.clear tr;
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped tr);
  Trace.add tr ~cat:"c" ~label:"e" ~site:"m" ~start_at:(at 50) ~stop_at:(at 60);
  Alcotest.(check int) "records again after clear" 1 (Trace.length tr);
  (* An unbounded trace never drops. *)
  let unb = Trace.create () in
  Trace.set_enabled unb true;
  for i = 0 to 99 do
    Trace.add unb ~cat:"c" ~label:"x" ~site:"m" ~start_at:(at i) ~stop_at:(at (i + 1))
  done;
  Alcotest.(check int) "unbounded keeps everything" 100 (Trace.length unb);
  Alcotest.(check int) "unbounded drops nothing" 0 (Trace.dropped unb)

let test_trace_call_ids () =
  let tr = Trace.create () in
  (* Disabled: the allocator hands out the sentinel and never advances. *)
  Alcotest.(check int) "new_call off" Trace.no_call (Trace.new_call tr);
  Trace.set_enabled tr true;
  Alcotest.(check int) "ids start at 0" 0 (Trace.new_call tr);
  Alcotest.(check int) "ids increment" 1 (Trace.new_call tr);
  Trace.clear tr;
  Alcotest.(check int) "clear restarts the allocator" 0 (Trace.new_call tr);
  (* Spans default to Service/no_call; explicit kind and call stick. *)
  let at n = Time.of_ns_since_start n in
  Trace.add tr ~cat:"c" ~label:"plain" ~site:"m" ~start_at:(at 0) ~stop_at:(at 1);
  Trace.add ~kind:Trace.Queue ~call:0 tr ~cat:"c" ~label:"tagged" ~site:"m" ~start_at:(at 1)
    ~stop_at:(at 2);
  match Trace.spans tr with
  | [ plain; tagged ] ->
    Alcotest.(check int) "default call is the sentinel" Trace.no_call plain.Trace.call;
    Alcotest.(check bool) "default kind is Service" true (plain.Trace.kind = Trace.Service);
    Alcotest.(check int) "explicit call sticks" 0 tagged.Trace.call;
    Alcotest.(check bool) "explicit kind sticks" true (tagged.Trace.kind = Trace.Queue)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let suite =
  [
    Alcotest.test_case "counter" `Quick test_counter;
    Alcotest.test_case "percentile nearest rank" `Quick test_percentile;
    Alcotest.test_case "level integral" `Quick test_level;
    Alcotest.test_case "level out-of-order timestamps" `Quick test_level_out_of_order;
    Alcotest.test_case "level set allocates nothing" `Quick test_level_set_zero_alloc;
    QCheck_alcotest.to_alcotest prop_level_matches_reference;
    Alcotest.test_case "trace empty and disabled" `Quick test_trace_empty;
    Alcotest.test_case "trace spans and filters" `Quick test_trace;
    Alcotest.test_case "trace capacity bound" `Quick test_trace_capacity;
    Alcotest.test_case "trace call-id allocator" `Quick test_trace_call_ids;
  ]
