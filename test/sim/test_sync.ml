module Engine = Sim.Engine
module Time = Sim.Time
module Condvar = Sim.Condvar
module Mutex = Sim.Mutex
module Mailbox = Sim.Mailbox
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
      Alcotest.(check int) "three waiting" 3 (Condvar.waiters cv);
      Alcotest.(check bool) "signal wakes" true (Condvar.signal cv));
  Engine.schedule eng ~after:(us 20) (fun () -> ignore (Condvar.broadcast cv));
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO wake order" [ 1; 2; 3 ] (List.rev !woken);
  Alcotest.(check bool) "signal on empty" false (Condvar.signal cv)

let test_condvar_timeout () =
  let eng = Engine.create () in
  let cv = Condvar.create eng in
  let outcome = ref `Signaled in
  Engine.spawn eng (fun () -> outcome := Condvar.await_timeout cv ~timeout:(us 10));
  (* After the timeout, a signal must not be consumed by the stale waiter. *)
  let late = ref false in
  Engine.spawn eng (fun () ->
      Engine.delay eng (us 20);
      Engine.spawn eng (fun () ->
          Condvar.await cv;
          late := true);
      Engine.delay eng (us 1);
      Alcotest.(check bool) "signal reaches live waiter" true (Condvar.signal cv));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!outcome = `Timeout);
  Alcotest.(check bool) "live waiter woken" true !late

let test_mutex_exclusion () =
  let eng = Engine.create () in
  let m = Mutex.create eng in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let done_count = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn eng (fun () ->
        Mutex.with_lock m (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Engine.delay eng (us 10);
            decr inside);
        incr done_count)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_inside;
  Alcotest.(check int) "all completed" 5 !done_count;
  Alcotest.(check int) "serialized duration" 50_000 (now_ns eng)

let test_mutex_misuse () =
  let eng = Engine.create () in
  let m = Mutex.create eng in
  Alcotest.(check bool) "unlock unheld rejected" true
    (try
       Mutex.unlock m;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "try_lock free" true (Mutex.try_lock m);
  Alcotest.(check bool) "try_lock held" false (Mutex.try_lock m);
  Mutex.unlock m;
  Alcotest.(check bool) "released" false (Mutex.locked m)

let test_mailbox () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        received := Mailbox.recv mb :: !received
      done);
  Engine.spawn eng (fun () ->
      Mailbox.send mb "a";
      Engine.delay eng (us 5);
      Mailbox.send mb "b";
      Mailbox.send mb "c");
  Engine.run eng;
  Alcotest.(check (list string)) "FIFO delivery" [ "a"; "b"; "c" ] (List.rev !received);
  Alcotest.(check bool) "drained" true (Mailbox.is_empty mb)

let test_resource_fifo_and_util () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"bus" ~capacity:1 in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng ~after:(us i) (fun () ->
        Resource.use r (us 10);
        order := i :: !order)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "FIFO service" [ 1; 2; 3 ] (List.rev !order);
  (* Busy 30us of the 31us elapsed. *)
  let util = Resource.utilization r ~upto:(Engine.now eng) in
  Alcotest.(check (float 0.01)) "utilization" (30. /. 31.) util

let test_resource_priority () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~capacity:1 in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Resource.use r (us 10);
      order := "holder" :: !order);
  Engine.spawn eng ~after:(us 1) (fun () ->
      Resource.use r (us 1);
      order := "normal" :: !order);
  Engine.spawn eng ~after:(us 2) (fun () ->
      Resource.use ~priority:Resource.High r (us 1);
      order := "interrupt" :: !order);
  Engine.run eng;
  Alcotest.(check (list string))
    "high priority jumps queue"
    [ "holder"; "interrupt"; "normal" ]
    (List.rev !order)

let test_resource_capacity () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpus" ~capacity:3 in
  let peak = ref 0 in
  for _ = 1 to 9 do
    Engine.spawn eng (fun () ->
        Resource.acquire r;
        if Resource.in_use r > !peak then peak := Resource.in_use r;
        Engine.delay eng (us 10);
        Resource.release r)
  done;
  Engine.run eng;
  Alcotest.(check int) "capacity bound" 3 !peak;
  Alcotest.(check int) "three waves" 30_000 (now_ns eng);
  Alcotest.(check int) "all released" 0 (Resource.in_use r)

let suite =
  [
    Alcotest.test_case "condvar signal/broadcast" `Quick test_condvar_signal;
    Alcotest.test_case "condvar timeout leaves queue clean" `Quick test_condvar_timeout;
    Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
    Alcotest.test_case "mutex misuse" `Quick test_mutex_misuse;
    Alcotest.test_case "mailbox FIFO" `Quick test_mailbox;
    Alcotest.test_case "resource FIFO + utilization" `Quick test_resource_fifo_and_util;
    Alcotest.test_case "resource priority" `Quick test_resource_priority;
    Alcotest.test_case "resource capacity" `Quick test_resource_capacity;
  ]
