module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Runtime = Rpc.Runtime
module World = Workload.World
module Driver = Workload.Driver

type bug = No_bug | No_retransmit

type config = {
  threads : int;
  calls_per_thread : int;
  payload : int;
  bug : bug;
  tie_break : [ `Fifo | `Random ];
  max_steps : int;
  uniproc : bool;
  streaming : bool;
  secured : bool;
}

let default_config =
  {
    threads = 3;
    calls_per_thread = 4;
    payload = 4000;
    bug = No_bug;
    tie_break = `Random;
    max_steps = 6;
    uniproc = false;
    streaming = false;
    secured = false;
  }

let validate config =
  if config.threads < 1 then Error "threads must be >= 1"
  else if config.calls_per_thread < 1 then Error "calls_per_thread must be >= 1"
  else if config.payload < 0 || config.payload > Workload.Test_interface.get_data_max then
    Error (Printf.sprintf "payload must be 0 to %d bytes" Workload.Test_interface.get_data_max)
  else if config.max_steps < 1 then Error "max_steps must be >= 1"
  else Ok config

type outcome = {
  seed : int;
  plan : Fault_plan.t;
  violations : Invariant.violation list;
  calls_ok : int;
  calls_failed : int;
  frames_carried : int;
  events_executed : int;
  spans : Sim.Trace.span list;
}

(* The workload must outlive any recoverable plan: the plan can kill at
   most [max_steps] frames plus two per Duplicate, so a few dozen
   retries cover it with margin. *)
let call_options bug =
  {
    Runtime.retransmit_after = Time.ms 30;
    max_retries = (match bug with No_retransmit -> 0 | No_bug -> 40);
    backoff = None;
  }

let workload_limit = Time.sec 120

(* An abandoned server send gives up after max_retries *
   retransmit_after (11 x 600 ms) and still retains its result, which
   the retained-result GC frees 5 s later; 12 s covers both. *)
let settle_window = Time.sec 12

(* The shared key for secured-cell runs; distribution is out of band in
   the real system, a constant here.  A plain value, not [lazy]:
   [Lazy.force] is not domain-safe, and parallel matrix sweeps reach
   this from every worker domain. *)
let matrix_key = Rpc.Secure.key_of_string "check-harness"

let run_plan ?(trace = false) config ~seed ~plan =
  (match validate config with Ok _ -> () | Error e -> invalid_arg ("Explorer.run_plan: " ^ e));
  let base = if config.uniproc then Hw.Config.uniprocessor else Hw.Config.default in
  let mc = { base with Hw.Config.streaming_results = config.streaming } in
  let auth = if config.secured then Some matrix_key else None in
  let w =
    World.create ~caller_config:mc ~server_config:mc ~seed ~tie_break:config.tie_break ?auth ()
  in
  let eng = w.World.eng in
  let monitor = Invariant.attach w in
  Fault_plan.install plan w;
  if trace then Sim.Trace.set_enabled (Engine.trace eng) true;
  let binding = World.test_binding w ~options:(call_options config.bug) ?auth () in
  let gate = Sim.Gate.create eng in
  let ok = ref 0 and failed = ref 0 and finished = ref 0 in
  for _ = 1 to config.threads do
    Machine.spawn_thread w.World.caller ~name:"check-caller" (fun () ->
        Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
            let client = Runtime.new_client w.World.caller_rt in
            for i = 1 to config.calls_per_thread do
              (* Alternate minimum packets and multi-fragment bulk
                 transfers so both protocol regimes face the plan. *)
              let bulk = config.payload > 0 && i mod 2 = 0 in
              let proc = if bulk then Driver.Get_data config.payload else Driver.Null in
              match
                Runtime.call binding client ctx ~proc_idx:(Driver.proc_idx proc)
                  ~args:(Driver.args_of proc)
              with
              | outs ->
                if Driver.result_ok proc outs then incr ok
                else
                  Invariant.record monitor ~inv:"result-correctness"
                    ~detail:
                      (Printf.sprintf "call %d returned a wrong %s result" i
                         (if bulk then "GetData" else "Null"))
              | exception Rpc.Rpc_error.Rpc _ -> incr failed
            done);
        incr finished;
        if !finished = config.threads then Sim.Gate.open_ gate)
  done;
  let stop_at = Time.add (Engine.now eng) workload_limit in
  Engine.run_while eng (fun () ->
      (not (Sim.Gate.is_open gate)) && Time.(Engine.now eng < stop_at));
  if not (Sim.Gate.is_open gate) then
    Invariant.record monitor ~inv:"completion"
      ~detail:
        (Printf.sprintf "workload stuck: %d of %d caller threads still running after %s"
           (config.threads - !finished) config.threads
           (Time.span_to_string workload_limit))
  else begin
    (* Let retransmission tails, delayed frames and the retained-result
       GC settle before auditing the pools. *)
    Engine.run_until eng (Time.add (Engine.now eng) settle_window);
    Invariant.check_quiescence monitor
  end;
  if (not (Fault_plan.has_restart plan)) && !failed > 0 then
    Invariant.record monitor ~inv:"completion"
      ~detail:
        (Printf.sprintf
           "%d call(s) failed although the fault plan is recoverable (no restart step)" !failed);
  if trace then Sim.Trace.set_enabled (Engine.trace eng) false;
  {
    seed;
    plan;
    violations = Invariant.violations monitor;
    calls_ok = !ok;
    calls_failed = !failed;
    frames_carried = Hw.Ether_link.frames_carried w.World.link;
    events_executed = Engine.events_executed eng;
    spans = (if trace then Sim.Trace.spans (Engine.trace eng) else []);
  }

let run_seed config ~seed =
  run_plan config ~seed ~plan:(Fault_plan.generate ~seed ~max_steps:config.max_steps ())

let shrink config outcome =
  if outcome.violations = [] then outcome
  else
    let still_fails steps =
      let o = run_plan config ~seed:outcome.seed ~plan:{ outcome.plan with steps } in
      if o.violations = [] then None else Some o
    in
    Shrinker.minimize_list ~still_fails ~steps:(fun o -> o.plan.Fault_plan.steps) outcome

type summary = { seeds_run : int; failures : outcome list }

(* One seed's complete investigation — run, and on violation shrink and
   re-run the minimal reproducer with tracing.  Self-contained (its own
   engine and machines), so seeds can run on worker domains. *)
let investigate_seed config ~seed =
  let o = run_seed config ~seed in
  if o.violations = [] then None
  else begin
    let minimal = shrink config o in
    (* Re-run the minimal reproducer with tracing for the report. *)
    Some (run_plan ~trace:true config ~seed ~plan:minimal.plan)
  end

let explore ?progress ?(jobs = 1) config ~base_seed ~seeds =
  if seeds < 1 then invalid_arg "Explorer.explore: seeds must be >= 1";
  (* Progress is announced up front (batch dispatch), the per-seed
     investigations fan out, and failures come back in seed order
     because the pool preserves input order. *)
  let seeds_list = List.init seeds (fun k -> base_seed + k) in
  Option.iter (fun f -> List.iter f seeds_list) progress;
  let results = Par.Pool.map_list ~jobs (fun seed -> investigate_seed config ~seed) seeds_list in
  { seeds_run = seeds; failures = List.filter_map Fun.id results }

(* {1 The configuration matrix} *)

type cell = { m_uniproc : bool; m_streaming : bool; m_secured : bool; m_payload : int }

(* 0 = all-minimum-packet calls, 1000 = one-fragment bulk results,
   4000 = multi-fragment (stop-and-wait or streaming) bulk results. *)
let matrix_payloads = [ 0; 1000; 4000 ]

let matrix_cells =
  List.concat_map
    (fun m_uniproc ->
      List.concat_map
        (fun m_streaming ->
          List.concat_map
            (fun m_secured ->
              List.map
                (fun m_payload -> { m_uniproc; m_streaming; m_secured; m_payload })
                matrix_payloads)
            [ false; true ])
        [ false; true ])
    [ false; true ]

let cell_to_string c =
  Printf.sprintf "%s %s %s payload=%d"
    (if c.m_uniproc then "uniproc" else "multiproc")
    (if c.m_streaming then "streaming" else "stop-and-wait")
    (if c.m_secured then "secured" else "clear")
    c.m_payload

let apply_cell config c =
  {
    config with
    uniproc = c.m_uniproc;
    streaming = c.m_streaming;
    secured = c.m_secured;
    payload = c.m_payload;
  }

let explore_matrix ?progress ?(jobs = 1) config ~base_seed ~seeds_per_cell =
  if seeds_per_cell < 1 then invalid_arg "Explorer.explore_matrix: seeds_per_cell must be >= 1";
  (* The matrix flattens to independent (cell, seed) tasks, cell [i]
     taking seeds [base_seed + i * seeds_per_cell ...]; the pool returns
     results in input order, so the failure list — and everything
     rendered from it — is the same for every [jobs]. *)
  let tasks =
    List.concat
      (List.mapi
         (fun i cell ->
           List.init seeds_per_cell (fun k -> (cell, base_seed + (i * seeds_per_cell) + k)))
         matrix_cells)
  in
  Option.iter (fun f -> List.iter (fun (cell, seed) -> f cell seed) tasks) progress;
  let results =
    Par.Pool.map_list ~jobs
      (fun (cell, seed) -> investigate_seed (apply_cell config cell) ~seed)
      tasks
  in
  { seeds_run = List.length tasks; failures = List.filter_map Fun.id results }

let trace_tail = 40

let pp_outcome fmt o =
  let open Format in
  fprintf fmt "@[<v>seed %d: %d violation(s), %d call(s) ok, %d failed cleanly@," o.seed
    (List.length o.violations) o.calls_ok o.calls_failed;
  List.iter (fun v -> fprintf fmt "  %s@," (Invariant.violation_to_string v)) o.violations;
  fprintf fmt "%s" (Fault_plan.to_string o.plan);
  fprintf fmt
    "replay: firefly check --seed %d --seeds 1 (with the same workload flags); the same seed@,"
    o.seed;
  fprintf fmt "regenerates the full plan — the minimal plan above is its shrunk core@,";
  (match List.filter (fun (s : Sim.Trace.span) -> s.Sim.Trace.cat <> "background") o.spans with
  | [] -> ()
  | spans ->
    let n = List.length spans in
    let tail =
      if n <= trace_tail then spans
      else List.filteri (fun i _ -> i >= n - trace_tail) spans
    in
    fprintf fmt "trace log (last %d of %d spans):@," (List.length tail) n;
    List.iter
      (fun (s : Sim.Trace.span) ->
        fprintf fmt "  %10.1fus %-9s %-34s %8.1fus@,"
          (Time.since_start_us s.Sim.Trace.start_at)
          s.Sim.Trace.site s.Sim.Trace.label
          (Time.to_us (Sim.Trace.duration s)))
      tail);
  fprintf fmt "@]"
