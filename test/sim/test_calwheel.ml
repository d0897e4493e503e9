(* The calendar queue must be invisible to event order: whatever the
   bucket math or the window resizes do, the pop sequence must be the
   exact (time, tie, seq) total order — the same sequence the
   {!Sim.Eventq} queue and a sorted-list model produce, whichever of
   its heaps and sorted runs an event joined.  These tests hold the two
   queues and the model to one sequence, across random interleavings
   and across the deterministic resize/overflow boundaries. *)

module Time = Sim.Time
module Engine = Sim.Engine
module Evnode = Sim.Evnode
module Eventq = Sim.Eventq
module Calendar = Sim.Calendar

let time_of_ns n = Time.of_ns_since_start n

let key_compare (t1, tie1, seq1) (t2, tie2, seq2) =
  match Time.compare t1 t2 with
  | 0 -> ( match compare tie1 tie2 with 0 -> compare seq1 seq2 | c -> c)
  | c -> c

let key_of (n : Evnode.t) = (n.Evnode.time, n.Evnode.tie, n.Evnode.seq)

(* {1 Heap vs calendar vs sorted list, random add/timer/pop interleavings} *)

(* [Add] and [Timer] insert at clock + dt — the engine never schedules
   in the past, and both queues assume it.  [Add] is an ordinary
   insert; [Timer] goes through [Eventq.insert_timer] on the heap side
   (the engine's timeouts) and the ordinary [Calendar.insert] on the
   calendar side.  Offsets run from ns to seconds, so a single run
   crosses many calendar days, lands events in the overflow heap and
   fills every part of the heap queue; the round µs, ms and s offsets
   make keys tie in time across the parts.  [Reclaim] and [Timeout] are
   the engine's two ordered streams, an ordinary insert at clock + 5 s
   (a retained-result reclaim) and a timeout at clock + 600 ms: their
   keys mostly arrive in order and extend the sorted runs, while the
   random tie of two at one instant sends the later one to the heap
   behind its run when it orders first.  [Drain] pops everything, so
   the runs empty and refill. *)
type cmd = Add of int * int | Timer of int * int | Reclaim of int | Timeout of int | Pop | Drain

let reclaim_after = 5_000_000_000
let timeout_after = 600_000_000

let prop_three_way_model =
  let gen =
    QCheck.Gen.(
      let offset =
        oneof
          [
            int_bound 500;
            int_bound 50_000;
            int_bound 20_000_000;
            map (( * ) 1_000) (int_bound 200);
            map (( * ) 1_000_000) (int_bound 100);
            map (( * ) 1_000_000_000) (int_bound 2);
          ]
      in
      let keyed f = map (fun (dt, tie) -> f dt tie) (pair offset (int_bound 3)) in
      list_size (int_bound 300)
        (frequency
           [
             (8, keyed (fun dt tie -> Add (dt, tie)));
             (4, keyed (fun dt tie -> Timer (dt, tie)));
             (4, map (fun tie -> Reclaim tie) (int_bound 3));
             (4, map (fun tie -> Timeout tie) (int_bound 3));
             (10, return Pop);
             (1, return Drain);
           ]))
  in
  let print cmds =
    String.concat "; "
      (List.map
         (function
           | Add (dt, tie) -> Printf.sprintf "add(+%d,%d)" dt tie
           | Timer (dt, tie) -> Printf.sprintf "timer(+%d,%d)" dt tie
           | Reclaim tie -> Printf.sprintf "reclaim(%d)" tie
           | Timeout tie -> Printf.sprintf "timeout(%d)" tie
           | Pop -> "pop"
           | Drain -> "drain")
         cmds)
  in
  QCheck.Test.make ~name:"calendar matches heap and sorted-list model" ~count:200
    (QCheck.make ~print gen) (fun cmds ->
      let pool_h = Evnode.create_pool () and pool_c = Evnode.create_pool () in
      let heap = Eventq.create ~pool:pool_h () in
      let cal = Calendar.create ~pool:pool_c () in
      let model = ref [] in
      let clock = ref 0 in
      let seq = ref 0 in
      let insert dt tie ~heap_insert =
        let time = time_of_ns (!clock + dt) in
        incr seq;
        heap_insert (Evnode.alloc pool_h ~time ~tie ~seq:!seq);
        Calendar.insert cal (Evnode.alloc pool_c ~time ~tie ~seq:!seq);
        model := List.sort key_compare ((time, tie, !seq) :: !model);
        Eventq.size heap = List.length !model && Calendar.size cal = List.length !model
      in
      let pop () =
        match !model with
        | [] -> Eventq.is_empty heap && Calendar.is_empty cal
        | expect :: rest ->
          model := rest;
          let nh = Eventq.pop heap and nc = Calendar.pop cal in
          let kh = key_of nh and kc = key_of nc in
          Evnode.recycle pool_h nh;
          Evnode.recycle pool_c nc;
          let et, _, _ = expect in
          clock := Time.since_start_ns et;
          kh = expect && kc = expect
      in
      let rec drain () = !model = [] || (pop () && drain ()) in
      List.for_all
        (fun cmd ->
          match cmd with
          | Add (dt, tie) -> insert dt tie ~heap_insert:(Eventq.insert heap)
          | Timer (dt, tie) -> insert dt tie ~heap_insert:(Eventq.insert_timer heap)
          | Reclaim tie -> insert reclaim_after tie ~heap_insert:(Eventq.insert heap)
          | Timeout tie -> insert timeout_after tie ~heap_insert:(Eventq.insert_timer heap)
          | Pop -> pop ()
          | Drain -> drain ())
        cmds
      && drain ()
      && Eventq.is_empty heap
      && Calendar.is_empty cal)

(* {1 Calendar resize and overflow boundaries, deterministically} *)

(* Dense enough to force the bucket array to double (>2 events/slot),
   then a far-future band that must sit in the overflow heap and
   migrate back as the window slides, then pops across both.  The full
   pop sequence must equal the sorted model — resizes rebuild the
   structure mid-stream and must not reorder anything. *)
let test_calendar_resize_boundaries () =
  let pool = Evnode.create_pool () in
  let cal = Calendar.create ~pool () in
  let model = ref [] in
  let seq = ref 0 in
  let add ns tie =
    incr seq;
    let t = time_of_ns ns in
    Calendar.add cal ~time:t ~tie ~seq:!seq ignore;
    model := (t, tie, !seq) :: !model
  in
  (* 3000 events, ~37 ns apart: thousands of events per 4 us day. *)
  for i = 0 to 2_999 do
    add (i * 37) (i land 1)
  done;
  (* A sparse far band: seconds away, far outside any direct window. *)
  for i = 0 to 199 do
    add (1_000_000_000 + (i * 9_000_000)) 0
  done;
  let expect = List.sort key_compare (List.rev !model) in
  let got = ref [] in
  while not (Calendar.is_empty cal) do
    let n = Calendar.pop cal in
    got := key_of n :: !got;
    Evnode.recycle pool n
  done;
  Alcotest.(check int) "all events popped" (List.length expect) (List.length !got);
  Alcotest.(check bool) "pop sequence equals sorted model" true
    (List.rev !got = expect)

(* {1 Engine-level equivalence} *)

let us = Time.us

(* The same mixed workload — chains, timeouts that fire, timeouts that
   are beaten — on both queue disciplines: the dispatch sequence (time
   and tag of every observable step) must be identical. *)
let run_mixed queue =
  let eng = Engine.create ~tie_break:`Random ~queue () in
  let log = ref [] in
  let note tag = log := (Time.since_start_ns (Engine.now eng), tag) :: !log in
  for i = 1 to 8 do
    Engine.spawn eng ~after:(us i) (fun () ->
        note "start";
        Engine.delay eng (us (3 + i));
        note "mid";
        let r =
          Engine.suspend_timeout eng ~timeout:(us (10 + i)) (fun w ->
              if i land 1 = 0 then
                Engine.schedule eng ~after:(us 2) (fun () -> ignore (Engine.wake w i)))
        in
        (match r with Some _ -> note "woken" | None -> note "timed-out");
        Engine.delay eng (us 1);
        note "done")
  done;
  Engine.run eng;
  List.rev !log

let test_engine_queue_equivalence () =
  let h = run_mixed `Heap and c = run_mixed `Calendar in
  Alcotest.(check (list (pair int string)))
    "heap and calendar dispatch identically" h c

(* {1 The flat hot loop allocates nothing} *)

(* Steady-state schedule/pop/dispatch through [register_handler] +
   [schedule_fn] recycles pooled nodes, so it must not allocate a single
   word on either queue.  A warm-up pass of the same chains fills the
   node pool and lets the calendar settle its bucket array; the measured
   pass then runs 64 chains of 2049 events whose delays spread over
   64 ns - 4.2 us, so events land in many buckets and overtake each
   other constantly.  A second mix schedules every fourth hop 131 us -
   197 us out, at or past the {!Sim.Eventq} near/far boundary, so its
   near heap and both far parts (the sorted run and the heap behind
   it) stay busy. *)
let chains = 64
let chain_steps = 2048

let run_chains eng fn =
  for chain = 0 to chains - 1 do
    Engine.schedule_fn eng ~after:Time.zero_span ~fn ~a:chain_steps ~b:chain
  done;
  Engine.run eng

let near_delay remaining chain = 64 + (((remaining * 37) + (chain * 101)) land 4095)

let far_delay remaining chain =
  if remaining land 3 = 0 then 131_072 + (((remaining * 37) + (chain * 101)) land 65535)
  else near_delay remaining chain

let test_flat_loop_zero_alloc () =
  List.iter
    (fun (name, queue, delay) ->
      let eng = Engine.create ~queue () in
      let fn_ref = ref (-1) in
      let fn =
        Engine.register_handler eng (fun remaining chain ->
            if remaining > 0 then
              Engine.schedule_fn eng
                ~after:(Time.ns (delay remaining chain))
                ~fn:!fn_ref ~a:(remaining - 1) ~b:chain)
      in
      fn_ref := fn;
      run_chains eng fn;
      let events0 = Engine.events_executed eng in
      let major0 = (Gc.quick_stat ()).Gc.major_words in
      let minor0 = Gc.minor_words () in
      run_chains eng fn;
      let minor = Gc.minor_words () -. minor0 in
      let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
      Alcotest.(check int) (name ^ ": events") (chains * (chain_steps + 1))
        (Engine.events_executed eng - events0);
      Alcotest.(check (float 0.)) (name ^ ": minor words") 0. minor;
      Alcotest.(check (float 0.)) (name ^ ": major words") 0. major)
    [
      ("heap", `Heap, near_delay);
      ("calendar", `Calendar, near_delay);
      ("heap, far hops", `Heap, far_delay);
      ("calendar, far hops", `Calendar, far_delay);
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_three_way_model;
    Alcotest.test_case "calendar resize and overflow boundaries" `Quick
      test_calendar_resize_boundaries;
    Alcotest.test_case "heap vs calendar engine equivalence" `Quick
      test_engine_queue_equivalence;
    Alcotest.test_case "flat hot loop allocates nothing" `Quick test_flat_loop_zero_alloc;
  ]
