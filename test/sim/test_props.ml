(* Property tests for the simulation foundation: whatever random
   workload runs on the engine, its invariants must hold — every model
   above depends on them. *)

module Engine = Sim.Engine
module Time = Sim.Time
module Resource = Sim.Resource

(* Random process workload: [ops] drives spawns, delays and resource
   usage deterministically from the generated script. *)
let run_script ops =
  let eng = Engine.create ~seed:1 () in
  let r = Resource.create eng in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let completions = ref 0 in
  let total = List.length ops in
  List.iter
    (fun (start_us, hold_us) ->
      Engine.spawn eng ~after:(Time.us start_us) (fun () ->
          Resource.acquire r;
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Engine.delay eng (Time.us (1 + hold_us));
          decr inside;
          Resource.release r;
          incr completions))
    ops;
  Engine.run ~max_events:1_000_000 eng;
  (* A free device rejects a release; one left held accepts it. *)
  let leaked =
    match Resource.release r with
    | () -> true
    | exception Invalid_argument _ -> false
  in
  (!max_inside, !completions, total, leaked, Engine.now eng)

let gen_ops =
  QCheck.Gen.(list_size (int_range 1 40) (pair (int_bound 500) (int_bound 200)))

let prop_resource_invariants =
  QCheck.Test.make ~name:"resource: capacity respected, all complete, none leak" ~count:100
    (QCheck.make gen_ops)
    (fun ops ->
      let max_inside, completions, total, leaked, _ = run_script ops in
      max_inside = 1 && completions = total && not leaked)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine: identical scripts give identical schedules" ~count:50
    (QCheck.make gen_ops)
    (fun ops -> run_script ops = run_script ops)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_resource_invariants;
    QCheck_alcotest.to_alcotest prop_engine_deterministic;
  ]
