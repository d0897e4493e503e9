(* A fixed pool of worker domains for fanning out independent
   simulations.

   The shape of every use in this repo is the same: a list of tasks,
   each of which builds its own [Sim.Engine] and runs a simulation to
   completion, with no shared mutable state between tasks.  So the pool
   is deliberately simple — one [Atomic] counter hands out task
   indices, each worker loops until the counter runs dry, and results
   land in a pre-sized array at their task's index.  Ordering is
   therefore canonical by construction: the caller gets results in
   input order no matter which domain ran what, which is what keeps
   parallel experiment tables byte-identical to serial ones.

   [jobs = 1] short-circuits to a plain serial [List.map] on the
   calling domain: no domains are spawned, no atomics touched, and
   tasks run in input order. *)

let default_jobs () = Domain.recommended_domain_count ()

(* Exceptions must not vanish into a worker domain: each task's outcome
   is captured and the first failure (in task order, so deterministic)
   is re-raised on the caller with its original backtrace. *)
type 'a outcome = Done of 'a | Failed of exn * Printexc.raw_backtrace

let run_task f x = try Done (f x) with e -> Failed (e, Printexc.get_raw_backtrace ())

let reraise_first results =
  Array.iter
    (function Failed (e, bt) -> Printexc.raise_with_backtrace e bt | Done _ -> ())
    results

let map_list ?(jobs = 1) f tasks =
  if jobs < 1 then invalid_arg "Par.Pool.map_list: jobs must be >= 1";
  match tasks with
  | [] -> []
  | tasks when jobs = 1 || List.compare_length_with tasks 1 <= 0 -> List.map f tasks
  | tasks ->
    let arr = Array.of_list tasks in
    let n = Array.length arr in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (run_task f arr.(i));
          loop ()
        end
      in
      loop ()
    in
    (* The calling domain participates, so [jobs] counts it: jobs = 4
       spawns 3 workers.  Never spawn more domains than tasks. *)
    let spawned = min (jobs - 1) (n - 1) in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    let outcomes =
      Array.map
        (function
          | Some o -> o
          | None ->
            (* Unreachable: every index below [n] is claimed exactly once
               and the claimant writes it before looping. *)
            Failed (Invalid_argument "Par.Pool: unfilled slot", Printexc.get_callstack 0))
        results
    in
    reraise_first outcomes;
    Array.to_list (Array.map (function Done v -> v | Failed _ -> assert false) outcomes)
