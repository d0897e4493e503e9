module Engine = Sim.Engine
module Time = Sim.Time

let us = Time.us

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Engine.schedule eng ~after:(us 20) (note "c");
  Engine.schedule eng ~after:(us 10) (note "a");
  Engine.schedule eng ~after:(us 10) (note "b");
  Engine.run eng;
  Alcotest.(check (list string)) "time then FIFO order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock advanced" 20_000 (Time.since_start_ns (Engine.now eng))

let test_delay () =
  let eng = Engine.create () in
  let stamps = ref [] in
  Engine.spawn eng (fun () ->
      stamps := Engine.now eng :: !stamps;
      Engine.delay eng (us 5);
      stamps := Engine.now eng :: !stamps;
      Engine.delay eng (us 7);
      stamps := Engine.now eng :: !stamps);
  Engine.run eng;
  let ns = List.rev_map Time.since_start_ns !stamps in
  Alcotest.(check (list int)) "delay advances clock" [ 0; 5_000; 12_000 ] ns;
  (* Both delays resume in place (nothing else is queued), and each is
     still one event. *)
  Alcotest.(check int) "events: the spawn and 2 delays" 3 (Engine.events_executed eng)

let test_zero_delay_yields () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "p1-before" :: !log;
      Engine.delay eng Time.zero_span;
      log := "p1-after" :: !log);
  Engine.spawn eng (fun () -> log := "p2" :: !log);
  Engine.run eng;
  Alcotest.(check (list string))
    "zero delay lets same-instant work run" [ "p1-before"; "p2"; "p1-after" ] (List.rev !log)

let test_suspend_wake () =
  let eng = Engine.create () in
  let woken_at = ref Time.zero in
  let saved = ref None in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend eng (fun w -> saved := Some w) in
      Alcotest.(check int) "value passed through" 99 v;
      woken_at := Engine.now eng);
  Engine.schedule eng ~after:(us 30) (fun () ->
      match !saved with
      | Some w ->
        Alcotest.(check bool) "first wake succeeds" true (Engine.wake w 99);
        Alcotest.(check bool) "second wake fails" false (Engine.wake w 100)
      | None -> Alcotest.fail "waker not registered");
  Engine.run eng;
  Alcotest.(check int) "woke at wake time" 30_000 (Time.since_start_ns !woken_at)

let test_suspend_timeout_fires () =
  let eng = Engine.create () in
  let result = ref (Some 0) in
  Engine.spawn eng (fun () ->
      result := Engine.suspend_timeout eng ~timeout:(us 10) (fun _ -> ()));
  Engine.run eng;
  Alcotest.(check (option int)) "timed out" None !result

let test_suspend_timeout_beaten () =
  let eng = Engine.create () in
  let result = ref None in
  let saved = ref None in
  Engine.spawn eng (fun () ->
      result := Engine.suspend_timeout eng ~timeout:(us 100) (fun w -> saved := Some w));
  Engine.schedule eng ~after:(us 5) (fun () ->
      match !saved with
      | Some w -> ignore (Engine.wake w 7)
      | None -> Alcotest.fail "waker not registered");
  Engine.run eng;
  Alcotest.(check (option int)) "woken before timeout" (Some 7) !result;
  (* The stale timeout event at t=100us must not resume anything. *)
  Alcotest.(check int) "no suspended leftovers" 0 (Engine.suspended_count eng)

(* A timeout whose waker fires first is recycled unrun, however close
   to its deadline the wake comes: woken 5 us or 99 us into a 100 us
   timeout, the run executes the spawn, the wake, the resumption and
   one later event, and nothing else.  Without the later event the
   clock ends at the wake instant, not at the dead deadline. *)
let test_beaten_timeout_never_runs () =
  let run queue ~wake_at ~later =
    let eng = Engine.create ~queue () in
    let saved = ref None in
    Engine.spawn eng (fun () ->
        ignore (Engine.suspend_timeout eng ~timeout:(us 100) (fun w -> saved := Some w)));
    Engine.schedule eng ~after:(us wake_at) (fun () ->
        match !saved with
        | Some w -> ignore (Engine.wake w 1)
        | None -> Alcotest.fail "waker not registered");
    if later then Engine.schedule eng ~after:(us 200) ignore;
    Engine.run eng;
    eng
  in
  List.iter
    (fun (name, queue) ->
      List.iter
        (fun wake_at ->
          let case = Printf.sprintf "%s, woken at %d us" name wake_at in
          Alcotest.(check int) (case ^ ": events") 4
            (Engine.events_executed (run queue ~wake_at ~later:true));
          Alcotest.(check int) (case ^ ": clock ends at the wake") (wake_at * 1_000)
            (Time.since_start_ns (Engine.now (run queue ~wake_at ~later:false))))
        [ 5; 99 ])
    [ ("heap", `Heap); ("calendar", `Calendar) ]

let test_not_in_process () =
  let eng = Engine.create () in
  Alcotest.check_raises "delay outside process" Engine.Not_in_process (fun () ->
      Engine.delay eng (us 1));
  Alcotest.check_raises "suspend outside process" Engine.Not_in_process (fun () ->
      ignore (Engine.suspend eng (fun (_ : unit Engine.waker) -> ())));
  (* A scheduled closure is not a process either, whether it runs
     before any process, while one waits out a delay or a suspension,
     or after all have ended, and even when nothing queued would come
     before its wake-up (so the delay would qualify to resume in
     place). *)
  let raised = ref [] in
  let try_delay tag () =
    match Engine.delay eng (us 1) with
    | () -> raised := (tag, false) :: !raised
    | exception Engine.Not_in_process -> raised := (tag, true) :: !raised
  in
  Engine.schedule eng (try_delay "before");
  Engine.spawn eng ~after:(us 1) (fun () ->
      Engine.delay eng (us 1);
      Engine.delay eng (us 10));
  Engine.schedule eng ~after:(us 5) (try_delay "delayed");
  let saved = ref None in
  Engine.spawn eng ~after:(us 15) (fun () ->
      ignore (Engine.suspend eng (fun w -> saved := Some w)));
  Engine.schedule eng ~after:(us 16) (try_delay "suspended");
  Engine.schedule eng ~after:(us 30) (fun () ->
      Option.iter (fun w -> ignore (Engine.wake w ())) !saved);
  Engine.schedule eng ~after:(us 40) (try_delay "ended");
  Engine.run eng;
  Alcotest.(check (list (pair string bool)))
    "every closure's delay raised"
    [ ("before", true); ("delayed", true); ("suspended", true); ("ended", true) ]
    (List.rev !raised)

let test_negative_delay () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      Alcotest.(check bool) "negative rejected" true
        (try
           Engine.delay eng (Time.us (-1));
           false
         with Invalid_argument _ -> true));
  Engine.run eng

(* Indices 0-2 are the engine's own handlers, which expect a waker or a
   continuation in the event's payload: [schedule_fn] must refuse them
   like any index [register_handler] never returned. *)
let test_unregistered_handler () =
  let eng = Engine.create () in
  let fn = Engine.register_handler eng (fun _ _ -> ()) in
  List.iter
    (fun bad ->
      Alcotest.(check bool) (Printf.sprintf "fn %d rejected" bad) true
        (try
           Engine.schedule_fn eng ~after:(us 1) ~fn:bad ~a:0 ~b:0;
           false
         with Invalid_argument _ -> true))
    [ -1; 0; 1; 2; fn + 1 ];
  Engine.schedule_fn eng ~after:(us 1) ~fn ~a:0 ~b:0;
  Engine.run eng;
  Alcotest.(check int) "only the registered event ran" 1 (Engine.events_executed eng)

(* A process that delays 1 us [limit] times.  Alone on the queue, every
   delay resumes in place, so only the run loop's bounds can stop it. *)
let ticker eng ?(limit = max_int) count () =
  while !count < limit do
    Engine.delay eng (us 1);
    incr count
  done

let test_run_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule eng ~after:(us 10) tick
  in
  Engine.schedule eng ~after:(us 10) tick;
  Engine.run_until ~max_events:1_000 eng (Time.add Time.zero (us 55));
  Alcotest.(check int) "ticks within window" 5 !count;
  Alcotest.(check int) "clock at stop" 55_000 (Time.since_start_ns (Engine.now eng));
  (* The same window for a process whose delays resume in place;
     [max_events] turns a missed stop into a failure, not a hang. *)
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (ticker eng count);
  let stop = Time.add Time.zero (Time.ns 50_500) in
  Engine.run_until ~max_events:1_000 eng stop;
  Alcotest.(check int) "process ticks within the window" 50 !count;
  Alcotest.(check int) "events: the spawn and 50 ticks" 51 (Engine.events_executed eng);
  Alcotest.(check int) "process clock at stop" 50_500 (Time.since_start_ns (Engine.now eng));
  Engine.run_until ~max_events:1_000 eng (Time.add stop (us 10));
  Alcotest.(check int) "the next window picks up the queued tick" 60 !count

let test_run_until_quiescence () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      ignore (Engine.suspend eng (fun (_ : unit Engine.waker) -> ())));
  Engine.run_until eng (Time.add Time.zero (us 100));
  Alcotest.(check int) "daemon left suspended" 1 (Engine.suspended_count eng);
  Alcotest.(check int) "clock still reaches stop" 100_000
    (Time.since_start_ns (Engine.now eng))

let test_run_while () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Engine.schedule eng ~after:(us 10) tick
  in
  Engine.schedule eng ~after:(us 10) tick;
  Engine.run_while eng (fun () -> !count < 7);
  Alcotest.(check int) "stopped by predicate" 7 !count;
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (ticker eng count);
  Engine.run_while ~max_events:1_000 eng (fun () -> !count < 7);
  Alcotest.(check int) "process stopped on the event where p turned false" 7 !count;
  Alcotest.(check int) "events: the spawn and 7 ticks" 8 (Engine.events_executed eng);
  Alcotest.(check int) "clock at the last tick" 7_000 (Time.since_start_ns (Engine.now eng))

(* The process would stop by itself after 10,000 ticks, so a guard that
   let it run on in place would show as a normal return. *)
let test_max_events_guard () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (ticker eng ~limit:10_000 count);
  Alcotest.(check bool) "runaway guarded" true
    (try
       Engine.run ~max_events:100 eng;
       false
     with Failure _ -> true);
  Alcotest.(check int) "stopped at the guard" 99 !count;
  Alcotest.(check int) "events at the guard" 100 (Engine.events_executed eng)

(* Two engines built the same way must produce identical schedules. *)
let deterministic_run () =
  let eng = Engine.create ~seed:7 () in
  let log = Buffer.create 64 in
  for i = 1 to 5 do
    Engine.spawn eng (fun () ->
        let jitter = Sim.Rng.int (Engine.rng eng) 50 in
        Engine.delay eng (us (i * 10));
        Engine.delay eng (us jitter);
        Buffer.add_string log (Printf.sprintf "%d@%d;" i (Time.since_start_ns (Engine.now eng))))
  done;
  Engine.run eng;
  (Buffer.contents log, Engine.events_executed eng)

let test_determinism () =
  let a = deterministic_run () in
  let b = deterministic_run () in
  Alcotest.(check (pair string int)) "identical runs" a b

let test_exception_escapes () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"crasher" (fun () -> failwith "boom");
  Alcotest.check_raises "process exception surfaces" (Failure "boom") (fun () ->
      Engine.run eng)

let test_spawn_nested () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      order := "parent" :: !order;
      Engine.spawn eng (fun () ->
          Engine.delay eng (us 1);
          order := "child" :: !order);
      Engine.delay eng (us 2);
      order := "parent-end" :: !order);
  Engine.run eng;
  Alcotest.(check (list string))
    "nested spawn interleaves" [ "parent"; "child"; "parent-end" ] (List.rev !order)

(* {1 Delays that resume in place}

   A delay whose wake-up sorts before everything queued resumes the
   process where it stands: no effect, no queue node.  These pin down
   that it is still exactly the event the run loop would have popped. *)

(* A lone process on an empty queue: every delay qualifies, and after
   a warm-up none of them allocates (a queued delay allocates at least
   its continuation). *)
let test_in_place_zero_alloc () =
  let eng = Engine.create () in
  let minor = ref nan in
  Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        Engine.delay eng (us 1)
      done;
      let minor0 = Gc.minor_words () in
      for _ = 1 to 1_000 do
        Engine.delay eng (us 1)
      done;
      minor := Gc.minor_words () -. minor0);
  Engine.run eng;
  Alcotest.(check int) "events" 1_101 (Engine.events_executed eng);
  Alcotest.(check (float 0.)) "minor words" 0. !minor

(* Three processes whose delays both tie and interleave, under random
   ties: the (process, step, time in us) order was recorded before
   delays could resume in place, so it checks that an in-place
   resumption draws exactly the (tie, seq) a queued one would. *)
let random_tie_schedule () =
  let eng = Engine.create ~seed:7 ~tie_break:`Random () in
  let log = ref [] in
  let delays = [| [ 1; 1; 0; 2; 3; 1 ]; [ 2; 0; 1; 1; 1; 4 ]; [ 1; 3; 0; 0; 2; 1 ] |] in
  Array.iteri
    (fun p ds ->
      Engine.spawn eng (fun () ->
          List.iteri
            (fun step d ->
              Engine.delay eng (us d);
              log := (p, step, Time.since_start_ns (Engine.now eng) / 1_000) :: !log)
            ds))
    delays;
  Engine.run eng;
  List.rev !log

let test_in_place_random_ties () =
  let show (p, s, t) = Printf.sprintf "p%d.%d@%d" p s t in
  Alcotest.(check (list string))
    "schedule"
    [
      "p0.0@1"; "p2.0@1"; "p1.0@2"; "p1.1@2"; "p0.1@2"; "p0.2@2"; "p1.2@3"; "p1.3@4"; "p2.1@4";
      "p0.3@4"; "p2.2@4"; "p2.3@4"; "p1.4@5"; "p2.4@6"; "p0.4@7"; "p2.5@7"; "p0.5@8"; "p1.5@9";
    ]
    (List.map show (random_tie_schedule ()))

let suite =
  [
    Alcotest.test_case "schedule ordering" `Quick test_schedule_order;
    Alcotest.test_case "delay" `Quick test_delay;
    Alcotest.test_case "zero delay yields" `Quick test_zero_delay_yields;
    Alcotest.test_case "suspend and wake" `Quick test_suspend_wake;
    Alcotest.test_case "suspend timeout fires" `Quick test_suspend_timeout_fires;
    Alcotest.test_case "suspend timeout beaten" `Quick test_suspend_timeout_beaten;
    Alcotest.test_case "beaten timeout never runs" `Quick test_beaten_timeout_never_runs;
    Alcotest.test_case "effects outside process" `Quick test_not_in_process;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay;
    Alcotest.test_case "unregistered handler rejected" `Quick test_unregistered_handler;
    Alcotest.test_case "run_until window" `Quick test_run_until;
    Alcotest.test_case "run_until quiescence" `Quick test_run_until_quiescence;
    Alcotest.test_case "run_while predicate" `Quick test_run_while;
    Alcotest.test_case "max_events guard" `Quick test_max_events_guard;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "process exception escapes" `Quick test_exception_escapes;
    Alcotest.test_case "nested spawn" `Quick test_spawn_nested;
    Alcotest.test_case "in-place delay allocates nothing" `Quick test_in_place_zero_alloc;
    Alcotest.test_case "random-tie schedule known answer" `Quick test_in_place_random_ties;
  ]
