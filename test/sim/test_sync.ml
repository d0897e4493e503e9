module Engine = Sim.Engine
module Time = Sim.Time
module Condvar = Sim.Condvar
module Resource = Sim.Resource

let us = Time.us
let now_ns eng = Time.since_start_ns (Engine.now eng)

let test_condvar_signal () =
  let eng = Engine.create () in
  let cv = Condvar.create eng in
  let woken = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Condvar.await cv;
        woken := i :: !woken)
  done;
  Engine.schedule eng ~after:(us 10) (fun () ->
      Alcotest.(check int) "three waiting" 3 (Engine.suspended_count eng);
      Alcotest.(check bool) "signal wakes" true (Condvar.signal cv ()));
  Engine.schedule eng ~after:(us 20) (fun () ->
      Alcotest.(check int) "broadcast wakes the rest" 2 (Condvar.broadcast cv ()));
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !woken);
  Alcotest.(check bool) "signal on empty" false (Condvar.signal cv ())

let test_condvar_timeout () =
  let eng = Engine.create () in
  let cv = Condvar.create eng in
  let outcome = ref (Some ()) in
  Engine.spawn eng (fun () -> outcome := Condvar.await_timeout cv ~timeout:(us 10));
  (* After the timeout, a signal must not be consumed by the stale waiter. *)
  let late = ref false in
  Engine.spawn eng (fun () ->
      Engine.delay eng (us 20);
      Engine.spawn eng (fun () ->
          Condvar.await cv;
          late := true);
      Engine.delay eng (us 1);
      Alcotest.(check bool) "signal reaches live waiter" true (Condvar.signal cv ()));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!outcome = None);
  Alcotest.(check bool) "live waiter woken" true !late

(* Each waiter receives the value of the signal that woke it, in FIFO
   order; a broadcast hands every remaining waiter the same value. *)
let test_condvar_value () =
  let eng = Engine.create () in
  let cv = Condvar.create eng in
  let got = ref [] in
  for i = 1 to 4 do
    Engine.spawn eng (fun () ->
        let v =
          if i = 2 then Condvar.await_timeout cv ~timeout:(us 100) else Some (Condvar.await cv)
        in
        got := (i, v) :: !got)
  done;
  Engine.schedule eng ~after:(us 10) (fun () ->
      ignore (Condvar.signal cv "first");
      ignore (Condvar.signal cv "second");
      ignore (Condvar.broadcast cv "rest"));
  Engine.run eng;
  Alcotest.(check (list (pair int (option string))))
    "values"
    [ (1, Some "first"); (2, Some "second"); (3, Some "rest"); (4, Some "rest") ]
    (List.rev !got)

let test_resource_fifo_and_util () =
  let eng = Engine.create () in
  let r = Resource.create eng in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng ~after:(us i) (fun () ->
        Resource.acquire r;
        Engine.delay eng (us 10);
        Resource.release r;
        order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO service" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "serialized duration" 31_000 (now_ns eng);
  (* Busy 30us of the 31us elapsed. *)
  let util = Resource.utilization r ~upto:(Engine.now eng) in
  Alcotest.(check (float 0.01)) "utilization" (30. /. 31.) util

let test_resource_misuse () =
  let eng = Engine.create () in
  let r = Resource.create eng in
  let rejects () =
    try
      Resource.release r;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "release of a free device rejected" true (rejects ());
  Engine.spawn eng (fun () ->
      Resource.acquire r;
      Engine.delay eng (us 10);
      Resource.release r;
      Engine.delay eng (us 10));
  Engine.run eng;
  Alcotest.(check bool) "second release rejected" true (rejects ());
  Alcotest.(check (float 1e-9)) "rejected releases leave the level alone" 0.5
    (Resource.utilization r ~upto:(Engine.now eng))

let suite =
  [
    Alcotest.test_case "condvar signal/broadcast" `Quick test_condvar_signal;
    Alcotest.test_case "condvar timeout leaves queue clean" `Quick test_condvar_timeout;
    Alcotest.test_case "condvar hands its value" `Quick test_condvar_value;
    Alcotest.test_case "resource FIFO + utilization" `Quick test_resource_fifo_and_util;
    Alcotest.test_case "resource misuse" `Quick test_resource_misuse;
  ]
