(* Property tests for the simulation foundation: whatever random
   workload runs on the engine, its invariants must hold — every model
   above depends on them. *)

module Engine = Sim.Engine
module Time = Sim.Time
module Resource = Sim.Resource
module Mutex = Sim.Mutex

(* Random process workload: [ops] drives spawns, delays and resource
   usage deterministically from the generated script. *)
let run_script ~capacity ops =
  let eng = Engine.create ~seed:1 () in
  let r = Resource.create eng ~name:"r" ~capacity in
  let max_in_use = ref 0 in
  let completions = ref 0 in
  let total = List.length ops in
  List.iter
    (fun (start_us, hold_us, priority) ->
      Engine.spawn eng ~after:(Time.us start_us) (fun () ->
          let priority = if priority then Resource.High else Resource.Normal in
          Resource.acquire ~priority r;
          if Resource.in_use r > !max_in_use then max_in_use := Resource.in_use r;
          Engine.delay eng (Time.us (1 + hold_us));
          Resource.release r;
          incr completions))
    ops;
  Engine.run ~max_events:1_000_000 eng;
  (!max_in_use, !completions, total, Resource.in_use r, Engine.now eng)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 40) (triple (int_bound 500) (int_bound 200) bool))

let prop_resource_invariants =
  QCheck.Test.make ~name:"resource: capacity respected, all complete, none leak" ~count:100
    (QCheck.make gen_ops)
    (fun ops ->
      List.for_all
        (fun capacity ->
          let max_in_use, completions, total, leftover, _ = run_script ~capacity ops in
          max_in_use <= capacity && completions = total && leftover = 0)
        [ 1; 2; 5 ])

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine: identical scripts give identical schedules" ~count:50
    (QCheck.make gen_ops)
    (fun ops ->
      let a = run_script ~capacity:2 ops in
      let b = run_script ~capacity:2 ops in
      a = b)

let prop_mutex_never_double_held =
  QCheck.Test.make ~name:"mutex: at most one holder under random contention" ~count:100
    (QCheck.make gen_ops)
    (fun ops ->
      let eng = Engine.create () in
      let m = Mutex.create eng in
      let inside = ref 0 in
      let violation = ref false in
      List.iter
        (fun (start_us, hold_us, _) ->
          Engine.spawn eng ~after:(Time.us start_us) (fun () ->
              Mutex.with_lock m (fun () ->
                  incr inside;
                  if !inside > 1 then violation := true;
                  Engine.delay eng (Time.us (1 + hold_us));
                  decr inside)))
        ops;
      Engine.run ~max_events:1_000_000 eng;
      (not !violation) && not (Mutex.locked m))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_resource_invariants;
    QCheck_alcotest.to_alcotest prop_engine_deterministic;
    QCheck_alcotest.to_alcotest prop_mutex_never_double_held;
  ]
