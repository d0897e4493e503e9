(* A delay whose wake-up comes after some queued events waits nested on
   a heap engine: it dispatches those events on its own stack, then
   resumes in place.  Nothing a model can see may tell it from a queued
   delay.  A calendar engine never nests, so it is the flat reference:
   the same program must give the same log, event count, suspended
   count and clock on both. *)

module Engine = Sim.Engine
module Time = Sim.Time
module Condvar = Sim.Condvar

let us = Time.us
let now_ns eng = Time.since_start_ns (Engine.now eng)

(* {1 Random process programs, heap against calendar} *)

type op =
  | Delay of int
  | Spawn of int * op list
  | Await of int
  | Await_timeout of int * int
  | Signal of int
  | Closure of int * int  (* after, the condvar it signals or -1 *)
  | Flat of int  (* a [schedule_fn] event after this many ns *)

(* How a case runs its engine: [Until] stops are window ends, [While]
   the number of log entries at which the predicate turns false,
   [Guard] the [max_events] bound.  A plain [run] to the end follows
   each, so [Run] is that run alone. *)
type loop = Run | Until of int list | While of int | Guard of int

type case = {
  procs : (int * op list) list;
  random_ties : bool;
  seed : int;
  loop : loop;
}

let ncv = 3

let rec show_op = function
  | Delay d -> Printf.sprintf "delay %d" d
  | Spawn (after, ops) -> Printf.sprintf "spawn +%d [%s]" after (show_ops ops)
  | Await cv -> Printf.sprintf "await %d" cv
  | Await_timeout (cv, t) -> Printf.sprintf "await %d timeout %d" cv t
  | Signal cv -> Printf.sprintf "signal %d" cv
  | Closure (after, cv) -> Printf.sprintf "closure +%d signals %d" after cv
  | Flat after -> Printf.sprintf "flat +%d" after

and show_ops ops = String.concat "; " (List.map show_op ops)

let show c =
  Printf.sprintf "%s ties, seed %d, %s: %s"
    (if c.random_ties then "random" else "fifo")
    c.seed
    (match c.loop with
    | Run -> "run"
    | Until stops -> "run_until " ^ String.concat "," (List.map string_of_int stops)
    | While k -> Printf.sprintf "run_while < %d" k
    | Guard m -> Printf.sprintf "max_events %d" m)
    (String.concat " | "
       (List.map (fun (after, ops) -> Printf.sprintf "+%d [%s]" after (show_ops ops)) c.procs))

(* From 0 ns to 1 s, mostly short, and whole microseconds often enough
   that wake-ups tie. *)
let span =
  QCheck.Gen.(
    frequency
      [
        (2, return 0);
        (3, int_bound 100);
        (6, map (( * ) 1_000) (int_range 1 20));
        (3, int_range 100 100_000);
        (2, int_range 100_000 10_000_000);
        (1, int_range 10_000_000 1_000_000_000);
      ])

let rec op_gen depth =
  let open QCheck.Gen in
  let cv = int_bound (ncv - 1) in
  let spawns =
    if depth = 0 then []
    else [ (1, map2 (fun after ops -> Spawn (after, ops)) span (ops_gen (depth - 1))) ]
  in
  frequency
    ([
       (8, map (fun d -> Delay d) span);
       (1, map (fun cv -> Await cv) cv);
       (2, map2 (fun cv t -> Await_timeout (cv, t)) cv span);
       (3, map (fun cv -> Signal cv) cv);
       (2, map2 (fun after cv -> Closure (after, cv)) span (int_range (-1) (ncv - 1)));
       (1, map (fun after -> Flat after) span);
     ]
    @ spawns)

and ops_gen depth = QCheck.Gen.(list_size (int_bound 10) (op_gen depth))

(* The window ends [t + d1], [t + d1 + d2], ... *)
let rec ends t = function [] -> [] | d :: ds -> (t + d) :: ends (t + d) ds

let case_gen =
  let open QCheck.Gen in
  let loop =
    frequency
      [
        (1, return Run);
        (1, map (fun ds -> Until (ends 0 ds)) (list_size (int_range 1 5) span));
        (1, map (fun k -> While k) (int_bound 60));
        (1, map (fun m -> Guard m) (int_bound 120));
      ]
  in
  map4
    (fun procs random_ties seed loop -> { procs; random_ties; seed; loop })
    (list_size (int_range 1 8) (pair span (ops_gen 2)))
    bool (int_bound 1_000) loop

(* Every step of every process, closure and flat event logs its clock
   and tag, and the end of each run logs the event count and the number
   of suspended processes. *)
let run_case queue c =
  let tie_break = if c.random_ties then `Random else `Fifo in
  let eng = Engine.create ~seed:c.seed ~tie_break ~queue () in
  let log = ref [] and entries = ref 0 in
  let note tag =
    log := (now_ns eng, tag) :: !log;
    incr entries
  in
  let cvs = Array.init ncv (fun _ -> Condvar.create eng) in
  let flat = Engine.register_handler eng (fun a _ -> note (Printf.sprintf "flat %d" a)) in
  let flats = ref 0 in
  let rec body tag ops () =
    List.iteri
      (fun i op ->
        let tag = Printf.sprintf "%s.%d" tag i in
        (match op with
        | Delay d -> Engine.delay eng (Time.ns d)
        | Spawn (after, ops) -> Engine.spawn eng ~after:(Time.ns after) (body tag ops)
        | Await cv -> Condvar.await cvs.(cv)
        | Await_timeout (cv, t) -> (
          match Condvar.await_timeout cvs.(cv) ~timeout:(Time.ns t) with
          | Some () -> note (tag ^ " woken")
          | None -> note (tag ^ " timed out"))
        | Signal cv -> ignore (Condvar.signal cvs.(cv) ())
        | Closure (after, cv) ->
          Engine.schedule eng ~after:(Time.ns after) (fun () ->
              note (tag ^ " closure");
              if cv >= 0 then ignore (Condvar.signal cvs.(cv) ()))
        | Flat after ->
          incr flats;
          Engine.schedule_fn eng ~after:(Time.ns after) ~fn:flat ~a:!flats ~b:0);
        note tag)
      ops
  in
  List.iteri
    (fun i (after, ops) -> Engine.spawn eng ~after:(Time.ns after) (body (string_of_int i) ops))
    c.procs;
  let mark what =
    note
      (Printf.sprintf "%s: %d events, %d suspended" what (Engine.events_executed eng)
         (Engine.suspended_count eng))
  in
  (match c.loop with
  | Run -> ()
  | Until stops ->
    List.iter
      (fun stop ->
        Engine.run_until eng (Time.of_ns_since_start stop);
        mark "window")
      stops
  | While k ->
    Engine.run_while eng (fun () -> !entries < k);
    mark "predicate"
  | Guard m -> (
    match Engine.run ~max_events:m eng with
    | () -> mark "under the guard"
    | exception Failure msg -> mark msg));
  Engine.run eng;
  mark "end";
  List.rev !log

let prop_nested_invisible =
  QCheck.Test.make ~name:"nested waits are invisible" ~count:400 (QCheck.make ~print:show case_gen)
    (fun c -> run_case `Heap c = run_case `Calendar c)

(* {1 One case per way a nested wait ends} *)

(* [waiter] delays 10 us at 0 with five events queued before its key:
   [early]'s spawn at 2 us, a closure at 4 us, [tied]'s spawn at 6 us
   and a closure at 10 us, all scheduled before the delay drew its key.
   Inside the wait, [early] delays 3 us and nests in turn behind the
   4 us closure, and [tied] delays until 10 us, the waiter's own
   instant, so it queues behind the waiter.  The log holds (clock in
   us, tag). *)
let nested_world ?(tie_break = `Fifo) ?closure queue =
  let eng = Engine.create ~tie_break ~queue () in
  let log = ref [] in
  let note tag = log := (now_ns eng / 1_000, tag) :: !log in
  Engine.spawn eng ~name:"waiter" (fun () ->
      note "waiter";
      Engine.delay eng (us 10);
      note "waiter resumed");
  Engine.spawn eng ~after:(us 2) ~name:"early" (fun () ->
      note "early";
      Engine.delay eng (us 3);
      note "early resumed");
  Engine.schedule eng ~after:(us 4) (fun () ->
      note "closure";
      Option.iter (fun f -> f eng) closure);
  Engine.schedule eng ~after:(us 10) (fun () -> note "closure at 10");
  Engine.spawn eng ~after:(us 6) ~name:"tied" (fun () ->
      note "tied";
      Engine.delay eng (us 4);
      note "tied resumed");
  (eng, log)

let outcome (eng, log) =
  (List.rev !log, Engine.events_executed eng, Engine.suspended_count eng, now_ns eng)

let check_outcome name heap cal =
  let show (l, events, suspended, clock) =
    Printf.sprintf "%s; %d events, %d suspended, clock %d ns"
      (String.concat ", " (List.map (fun (t, tag) -> Printf.sprintf "%d:%s" t tag) l))
      events suspended clock
  in
  Alcotest.(check string) name (show cal) (show heap)

let test_resumes () =
  List.iter
    (fun tie_break ->
      let heap = nested_world ~tie_break `Heap and cal = nested_world ~tie_break `Calendar in
      Engine.run (fst heap);
      Engine.run (fst cal);
      check_outcome "as the flat run" (outcome heap) (outcome cal))
    [ `Fifo; `Random ];
  let ((eng, _) as w) = nested_world `Heap in
  Engine.run eng;
  let log, events, _, _ = outcome w in
  Alcotest.(check (list (pair int string)))
    "every event before the waiter's key, then the waiter"
    [
      (0, "waiter"); (2, "early"); (4, "closure"); (5, "early resumed"); (6, "tied");
      (10, "closure at 10"); (10, "waiter resumed"); (10, "tied resumed");
    ]
    log;
  Alcotest.(check int) "events: 3 spawns, 2 closures, 3 delays" 8 events

(* A guard of [n] trips before the [n + 1]-th of the eight events (at
   8, after the last).  Guards 1 to 6 trip inside the waiter's nested
   wait, 2 and 3 inside [early]'s too, and 7 and 8 in the flat loop. *)
let test_guard () =
  for limit = 1 to 8 do
    let name = Printf.sprintf "max_events %d" limit in
    let guarded (eng, _) =
      match Engine.run ~max_events:limit eng with
      | () -> "no failure"
      | exception Failure msg -> msg
    in
    let heap = nested_world `Heap and cal = nested_world `Calendar in
    Alcotest.(check string) (name ^ ": failure") (guarded cal) (guarded heap);
    check_outcome (name ^ ": at the guard") (outcome heap) (outcome cal);
    Engine.run (fst heap);
    Engine.run (fst cal);
    check_outcome (name ^ ": the next run resumes the waiters") (outcome heap) (outcome cal)
  done

(* The predicate turns false after the [k]-th of the eight log entries:
   stops 1 to 6 fall inside the waiter's nested wait, 2 and 3 inside
   [early]'s too, and 7 and 8 in the flat loop. *)
let test_predicate () =
  for k = 1 to 8 do
    let name = Printf.sprintf "stop after entry %d" k in
    let stop (eng, log) = Engine.run_while eng (fun () -> List.length !log < k) in
    let heap = nested_world `Heap and cal = nested_world `Calendar in
    stop heap;
    stop cal;
    check_outcome (name ^ ": the loop stops on the same event") (outcome heap) (outcome cal);
    Engine.run (fst heap);
    Engine.run (fst cal);
    check_outcome (name ^ ": the next run resumes the waiters") (outcome heap) (outcome cal)
  done

(* Runs [f] with standard error sent to a file and returns its result
   and what was written. *)
let capture_stderr f =
  flush stderr;
  let file = Filename.temp_file "test_nested" ".err" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let result = match f () with v -> Ok v | exception e -> Error e in
  flush stderr;
  Unix.dup2 saved Unix.stderr;
  Unix.close saved;
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (result, text)

(* [doomed] starts inside the waiter's first nested wait and delays past
   its wake-up, so its delay queues.  The waiter's second delay nests
   behind it and resumes it, and [doomed] dies there. *)
let dying_world queue =
  let eng = Engine.create ~queue () in
  let log = ref [] in
  let note tag = log := (now_ns eng / 1_000, tag) :: !log in
  Engine.spawn eng ~name:"waiter" (fun () ->
      Engine.delay eng (us 10);
      note "waiter at 10";
      Engine.delay eng (us 10);
      note "waiter resumed");
  Engine.spawn eng ~after:(us 1) ~name:"doomed" (fun () ->
      Engine.delay eng (us 11);
      note "doomed";
      failwith "boom");
  (eng, log)

let test_dies () =
  let died queue =
    let ((eng, _) as w) = dying_world queue in
    let result, err = capture_stderr (fun () -> Engine.run eng) in
    let raised = match result with Ok () -> "returned" | Error e -> Printexc.to_string e in
    let at_failure = outcome w in
    Engine.run eng;
    (raised, err, at_failure, outcome w)
  in
  let raised, err, at_failure, final = died `Heap in
  Alcotest.(check string) "Engine.run raises" "Failure(\"boom\")" raised;
  Alcotest.(check string) "one line, for the process that died"
    "[sim] process \"doomed\" died: Failure(\"boom\")\n" err;
  let log, _, _, _ = final in
  Alcotest.(check (list (pair int string)))
    "the next run resumes the waiter at its key"
    [ (10, "waiter at 10"); (12, "doomed"); (20, "waiter resumed") ]
    log;
  let c_raised, c_err, c_at_failure, c_final = died `Calendar in
  Alcotest.(check string) "raises as the flat run" c_raised raised;
  Alcotest.(check string) "prints as the flat run" c_err err;
  check_outcome "at the failure, as the flat run" at_failure c_at_failure;
  check_outcome "after the next run, as the flat run" final c_final

(* A closure or a flat handler that the waiter dispatches runs under the
   waiter's effect handler, so only the engine's own check stops its
   delay or suspend from suspending the waiter. *)
let test_closure_effects () =
  let refused = ref [] in
  let try_effect what f =
    match f () with
    | () -> refused := (what, false) :: !refused
    | exception Engine.Not_in_process -> refused := (what, true) :: !refused
  in
  let closure eng =
    try_effect "closure delay" (fun () -> Engine.delay eng (us 1));
    try_effect "closure suspend" (fun () ->
        ignore (Engine.suspend eng (fun (_ : unit Engine.waker) -> ())));
    let fn =
      Engine.register_handler eng (fun _ _ ->
          try_effect "flat delay" (fun () -> Engine.delay eng (us 1)))
    in
    Engine.schedule_fn eng ~after:(us 1) ~fn ~a:0 ~b:0
  in
  let ((eng, _) as w) = nested_world ~closure `Heap in
  Engine.run eng;
  Alcotest.(check (list (pair string bool)))
    "each raised Not_in_process"
    [ ("closure delay", true); ("closure suspend", true); ("flat delay", true) ]
    (List.rev !refused);
  let log, _, suspended, clock = outcome w in
  Alcotest.(check (list (pair int string)))
    "the waiter resumes as usual"
    [
      (0, "waiter"); (2, "early"); (4, "closure"); (5, "early resumed"); (6, "tied");
      (10, "closure at 10"); (10, "waiter resumed"); (10, "tied resumed");
    ]
    log;
  Alcotest.(check int) "nothing suspended" 0 suspended;
  Alcotest.(check int) "clock" 10_000 clock

(* A loop started inside a nested wait would run the events queued
   after the waiter's key before the waiter. *)
let test_no_loop_inside () =
  let refused = ref [] in
  let try_loop what f =
    match f () with
    | () -> refused := (what, false) :: !refused
    | exception Invalid_argument _ -> refused := (what, true) :: !refused
  in
  let closure eng =
    try_loop "run" (fun () -> Engine.run eng);
    try_loop "run_until" (fun () -> Engine.run_until eng (Time.of_ns_since_start 20_000));
    try_loop "run_while" (fun () -> Engine.run_while eng (fun () -> true))
  in
  let ((eng, _) as w) = nested_world ~closure `Heap in
  Engine.spawn eng ~after:(us 3) (fun () ->
      try_loop "run from a process" (fun () -> Engine.run eng));
  Engine.run eng;
  Alcotest.(check (list (pair string bool)))
    "each raised Invalid_argument"
    [ ("run from a process", true); ("run", true); ("run_until", true); ("run_while", true) ]
    (List.rev !refused);
  let log, _, _, clock = outcome w in
  Alcotest.(check int) "the waiter resumes at its key" 10_000 clock;
  Alcotest.(check (list (pair int string)))
    "the waiter, then the process tied with it"
    [ (10, "waiter resumed"); (10, "tied resumed") ]
    (List.filteri (fun i _ -> i >= List.length log - 2) log);
  (* With no nested wait, a closure may still start a loop. *)
  let eng = Engine.create () in
  let ran = ref false in
  Engine.schedule eng ~after:(us 5) (fun () -> ran := true);
  Engine.schedule eng (fun () -> Engine.run_until eng (Time.of_ns_since_start 10_000));
  Engine.run eng;
  Alcotest.(check bool) "a loop inside a top-level closure runs" true !ran

let suite =
  [
    QCheck_alcotest.to_alcotest prop_nested_invisible;
    Alcotest.test_case "nested wait resumes" `Quick test_resumes;
    Alcotest.test_case "guard trips inside a nested wait" `Quick test_guard;
    Alcotest.test_case "predicate turns false inside a nested wait" `Quick test_predicate;
    Alcotest.test_case "process dies inside a nested wait" `Quick test_dies;
    Alcotest.test_case "closure inside a nested wait cannot delay" `Quick test_closure_effects;
    Alcotest.test_case "no run loop inside a nested wait" `Quick test_no_loop_inside;
  ]
