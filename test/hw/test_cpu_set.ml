module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set

let us = Time.us
let now_ns eng = Time.since_start_ns (Engine.now eng)

let test_any_prefers_high_index () =
  let eng = Engine.create () in
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"m" ~cpus:3 in
  let picked = ref [] in
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu set (fun a ->
          picked := Cpu_set.cpu_index a :: !picked;
          Cpu_set.with_cpu set (fun b ->
              picked := Cpu_set.cpu_index b :: !picked;
              Cpu_set.with_cpu set (fun c ->
                  picked := Cpu_set.cpu_index c :: !picked;
                  Cpu_set.charge c ~cat:"t" ~label:"x" (us 1)))));
  Engine.run eng;
  Alcotest.(check (list int)) "high indexes first, CPU 0 last" [ 2; 1; 0 ] (List.rev !picked)

let test_cpu0_affinity_waits () =
  let eng = Engine.create () in
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"m" ~cpus:2 in
  let events = ref [] in
  (* A thread pinned to CPU 0 must wait for the CPU-0 holder even though
     CPU 1 is free. *)
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 set (fun ctx ->
          events := ("holder", Cpu_set.cpu_index ctx) :: !events;
          Cpu_set.charge ctx ~cat:"t" ~label:"hold" (us 100)));
  Engine.spawn eng ~after:(us 10) (fun () ->
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 set (fun ctx ->
          events := ("pinned@" ^ string_of_int (now_ns eng / 1000), Cpu_set.cpu_index ctx) :: !events));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "pinned thread waited for CPU 0"
    [ ("holder", 0); ("pinned@100", 0) ]
    (List.rev !events)

let test_interrupt_priority_on_cpu0 () =
  let eng = Engine.create () in
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"m" ~cpus:1 in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu set (fun ctx -> Cpu_set.charge ctx ~cat:"t" ~label:"busy" (us 50)));
  Engine.spawn eng ~after:(us 10) (fun () ->
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 set (fun _ -> order := "thread" :: !order));
  Engine.spawn eng ~after:(us 20) (fun () ->
      Cpu_set.with_cpu ~affinity:Cpu_set.Cpu0 ~priority:Cpu_set.Interrupt set (fun _ ->
          order := "interrupt" :: !order));
  Engine.run eng;
  Alcotest.(check (list string))
    "interrupt served before queued thread" [ "interrupt"; "thread" ] (List.rev !order)

let test_uniprocessor_serializes () =
  let eng = Engine.create () in
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"m" ~cpus:1 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Cpu_set.with_cpu set (fun ctx -> Cpu_set.charge ctx ~cat:"t" ~label:"work" (us 10)))
  done;
  Engine.run eng;
  Alcotest.(check int) "serialized on one CPU" 30_000 (now_ns eng)

let test_yield_cpu () =
  let eng = Engine.create () in
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"m" ~cpus:1 in
  let cv = Sim.Condvar.create eng in
  let got_cpu_while_blocked = ref false in
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu set (fun ctx ->
          Cpu_set.charge ctx ~cat:"t" ~label:"pre" (us 5);
          Cpu_set.yield_cpu ctx (fun () -> Sim.Condvar.await cv);
          Cpu_set.charge ctx ~cat:"t" ~label:"post" (us 5)));
  Engine.spawn eng ~after:(us 10) (fun () ->
      (* The single CPU must be free while the first thread waits. *)
      Cpu_set.with_cpu set (fun ctx ->
          got_cpu_while_blocked := true;
          Cpu_set.charge ctx ~cat:"t" ~label:"other" (us 5));
      ignore (Sim.Condvar.signal cv ()));
  Engine.run eng;
  Alcotest.(check bool) "cpu released during wait" true !got_cpu_while_blocked;
  Alcotest.(check int) "all work completed" 0 (Cpu_set.busy_now set)

let test_charge_traces () =
  let eng = Engine.create () in
  Sim.Trace.set_enabled (Engine.trace eng) true;
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"caller" ~cpus:2 in
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu set (fun ctx ->
          Cpu_set.charge ctx ~cat:"send+receive" ~label:"Calculate UDP checksum" (us 45);
          Cpu_set.charge ctx ~cat:"send+receive" ~label:"Calculate UDP checksum" Time.zero_span));
  Engine.run eng;
  let tr = Engine.trace eng in
  match Sim.Trace.spans tr with
  | [ s ] ->
    Alcotest.(check string) "span label" "Calculate UDP checksum" s.Sim.Trace.label;
    Alcotest.(check string) "span site" "caller" s.Sim.Trace.site;
    Alcotest.(check int) "span duration" 45_000 (Time.to_ns (Sim.Trace.duration s))
  | spans -> Alcotest.failf "zero-length charges not skipped: %d spans" (List.length spans)

let test_utilization () =
  let eng = Engine.create () in
  let set = Cpu_set.create ~obs:(Obs.Ctx.create ()) eng ~site:"m" ~cpus:2 in
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu set (fun ctx -> Cpu_set.charge ctx ~cat:"t" ~label:"a" (us 100)));
  Engine.spawn eng (fun () ->
      Cpu_set.with_cpu set (fun ctx -> Cpu_set.charge ctx ~cat:"t" ~label:"b" (us 50)));
  Engine.run eng;
  let upto = Engine.now eng in
  Alcotest.(check (float 0.01)) "average busy CPUs" 1.5 (Cpu_set.average_busy set ~upto);
  Alcotest.(check (float 0.01)) "utilization" 0.75 (Cpu_set.utilization set ~upto)

let suite =
  [
    Alcotest.test_case "any prefers high index" `Quick test_any_prefers_high_index;
    Alcotest.test_case "cpu0 affinity waits" `Quick test_cpu0_affinity_waits;
    Alcotest.test_case "interrupt priority" `Quick test_interrupt_priority_on_cpu0;
    Alcotest.test_case "uniprocessor serializes" `Quick test_uniprocessor_serializes;
    Alcotest.test_case "yield_cpu releases" `Quick test_yield_cpu;
    Alcotest.test_case "charge records trace" `Quick test_charge_traces;
    Alcotest.test_case "utilization" `Quick test_utilization;
  ]
