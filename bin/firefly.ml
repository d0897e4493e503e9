(* The firefly CLI: explore the simulated Firefly RPC system.

     firefly list                        list reproducible experiments
     firefly repro [ID...] [--quick]     regenerate paper tables
     firefly call  [options]             run an ad-hoc workload
     firefly breakdown [--proc P]        per-step attribution of traced calls
     firefly check [--seeds N]           seeded fault-plan exploration

   `firefly call` exposes the configuration knobs (§4.2's improvements,
   processor counts, loss injection...) so any what-if can be run from
   the shell; `firefly check` runs the deterministic simulation-testing
   harness of library `check`.

   A run's configuration is a library record: the flags take their
   defaults from it and its [validate] is the only range check.  Other
   values are checked as they are parsed, so a bad value is a usage
   error (exit 124) before anything runs. *)

open Cmdliner

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* {1 Ranges of values that belong to no record} *)

let restrict conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) -> Error (`Msg ("invalid value '" ^ s ^ "', expected " ^ expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let int_at_least n = restrict Arg.int ~expected:(Printf.sprintf "an integer >= %d" n) (( <= ) n)

let int_within lo hi =
  restrict Arg.int
    ~expected:(Printf.sprintf "an integer from %d to %d" lo hi)
    (fun v -> lo <= v && v <= hi)

let probability = restrict Arg.float ~expected:"a number in [0, 1)" (fun p -> 0. <= p && p < 1.)

let percent = restrict Arg.float ~expected:"a number from 0 to 100" (fun p -> 0. <= p && p <= 100.)

(* {1 Shared configuration flags} *)

(* The caller's and the server's Hw.Config.t.  One deliberate departure
   from Hw.Config.default: the section-5 swapped-lines fix is installed
   unless --no-uniproc-fix is given, so `call` and `breakdown` charge its
   100 us "Multiprocessor fix" stage, which `repro`'s tables do not. *)
let configs_term =
  let d = Hw.Config.default in
  let docs = "CONFIGURATION" in
  let flag name doc = Arg.(value & flag & info [ name ] ~docs ~doc) in
  let opt parse default name doc = Arg.(value & opt parse default & info [ name ] ~docs ~doc) in
  let make cpus caller_cpus server_cpus ethernet_mbps cpu_speedup no_checksums cut_through
      busy_wait hand_stubs hand_runtime raw_ethernet redesigned_header streaming_results
      no_uniproc_fix interrupt_code =
    let config side cpus_flag =
      Hw.Config.validate
        {
          d with
          Hw.Config.cpus = Option.value cpus_flag ~default:cpus;
          cpu_speedup;
          ethernet_mbps;
          udp_checksums = not no_checksums;
          cut_through;
          busy_wait;
          hand_stubs;
          hand_runtime;
          raw_ethernet;
          redesigned_header;
          streaming_results;
          uniproc_fix = not no_uniproc_fix;
          interrupt_code;
        }
      |> Result.map_error (fun e -> side ^ " configuration: " ^ e)
    in
    Result.bind (config "caller" caller_cpus) (fun caller ->
        Result.map (fun server -> (caller, server)) (config "server" server_cpus))
  in
  Term.(
    term_result' ~usage:true
      (const make
      $ opt Arg.int d.cpus "cpus" "Processors per machine (both)."
      $ opt Arg.(some int) None "caller-cpus" "Caller processors."
      $ opt Arg.(some int) None "server-cpus" "Server processors."
      $ opt Arg.float d.ethernet_mbps "mbps" "Ethernet bit rate (Mbit/s)."
      $ opt Arg.float d.cpu_speedup "cpu-speedup" "CPU speed vs MicroVAX II."
      $ flag "no-checksums" "Omit software UDP checksums (paper 4.2.4)."
      $ flag "cut-through" "Controller overlaps QBus and Ethernet transfers (4.2.1)."
      $ flag "busy-wait" "Threads spin for packets instead of blocking (4.2.7)."
      $ flag "hand-stubs" "RPC Exerciser hand-produced stubs (section 5)."
      $ flag "hand-runtime" "RPC runtime recoded in machine code (4.2.8)."
      $ flag "raw-ethernet" "RPC directly on Ethernet datagrams, no IP/UDP (4.2.6)."
      $ flag "redesigned-header" "Easier-to-parse RPC header (4.2.5)."
      $ flag "streaming" "Blast multi-packet results without per-fragment acks."
      $ flag "no-uniproc-fix" "Leave the section-5 uniprocessor scheduling bug in place."
      $ opt
          (Arg.enum
             Hw.Config.
               [ ("assembly", Assembly); ("modula2", Final_modula2); ("original", Original_modula2) ])
          d.interrupt_code "interrupt-code" "Interrupt routine version (Table IX)."))

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~docs:"CONFIGURATION" ~doc:"Simulation seed.")

(* {1 firefly list} *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> say "%-14s %s" e.Experiments.Registry.id e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproducible experiments.") Term.(const run $ const ())

(* {1 firefly repro} *)

let jobs_term =
  Arg.(
    value
    & opt (int_at_least 1) (Par.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulations (default: the machine's recommended \
           domain count).  Output is byte-identical for every $(docv); $(b,--jobs 1) runs \
           everything on the calling domain.")

let repro_cmd =
  let run quick metrics jobs transport entries =
    let entries = match entries with [] -> Experiments.Registry.all | es -> es in
    (* Each entry regenerates on a worker domain (every simulation owns
       its engine); rendering to strings and printing afterwards in
       registry order keeps the output independent of [jobs]. *)
    let rendered =
      Par.Pool.map_list ~jobs
        (fun (e : Experiments.Registry.entry) ->
          String.concat ""
            (List.map Report.Table.render (e.Experiments.Registry.run ~transport ~quick ~metrics)))
        entries
    in
    List.iter2
      (fun (e : Experiments.Registry.entry) body ->
        say "";
        say "### %s — %s" e.Experiments.Registry.id e.Experiments.Registry.title;
        print_string body)
      entries rendered
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced call counts.") in
  let metrics =
    Arg.(
      value
      & flag
      & info [ "metrics" ]
          ~doc:"Add measured latency-percentile columns where supported (Table I).")
  in
  let transport =
    Arg.(
      value
      & opt (enum [ ("sim", (`Auto : Experiments.Registry.transport)); ("local", `Local) ])
          `Auto
      & info [ "transport" ]
          ~doc:
            "Bind-time transport for the transport-sensitive experiments (Table I): \
             $(b,sim) (default) measures over the simulated Ethernet, $(b,local) over \
             same-machine shared memory — the paper's RPC-on-one-machine row.")
  in
  let experiment =
    let parse id =
      Option.to_result (Experiments.Registry.find id)
        ~none:(`Msg (Printf.sprintf "unknown experiment %S (try `firefly list`)" id))
    in
    Arg.conv (parse, fun ppf e -> Format.pp_print_string ppf e.Experiments.Registry.id)
  in
  let entries = Arg.(value & pos_all experiment [] & info [] ~docv:"ID") in
  Cmd.v
    (Cmd.info "repro" ~doc:"Regenerate the paper's tables (all, or the given IDs).")
    Term.(const run $ quick $ metrics $ jobs_term $ transport $ entries)

(* {1 firefly call} *)

let proc_conv =
  Arg.enum Workload.Driver.[ ("null", Null); ("maxresult", Max_result); ("maxarg", Max_arg) ]

let call_cmd =
  let run (caller_config, server_config) seed proc threads calls bulk loss transport metrics =
    let proc =
      match bulk with
      | Some n -> Workload.Driver.Get_data n
      | None -> proc
    in
    match transport with
    | `Socket ->
      (* The real-UDP path: whole RPCs over a loopback kernel socket
         (the same Frames.build bytes, a real network stack), printed
         beside the simulator's calibrated latencies for the same
         procedures. *)
      if not (Realnet.Udp_socket.available ()) then
        say
          "loopback UDP sockets are unavailable in this environment: skipping the \
           real-socket run"
      else begin
        let sim_us proc =
          let w = Workload.World.create ~caller_config ~server_config ~seed ~idle_load:false () in
          Sim.Time.to_us (Workload.Driver.measure_single_call w ~proc ())
        in
        let sim_null_us = sim_us Workload.Driver.Null in
        let sim_maxarg_us = sim_us Workload.Driver.Max_arg in
        match Realnet.Crossval.table ~calls ~sim_null_us ~sim_maxarg_us () with
        | Error e -> say "socket transport unavailable: %s — skipping" e
        | Ok t -> print_string (Report.Table.render t)
      end
    | (`Auto | `Local | `Decnet) as transport ->
    let w = Workload.World.create ~caller_config ~server_config ~seed () in
    if loss > 0. then begin
      let rng = Sim.Engine.rng w.Workload.World.eng in
      Hw.Ether_link.set_fault_injector w.Workload.World.link
        (Some
           (fun _ ->
             if Sim.Rng.bool rng ~p:loss then Hw.Ether_link.Drop else Hw.Ether_link.Deliver))
    end;
    let options =
      if loss > 0. then
        Some { Rpc.Runtime.retransmit_after = Sim.Time.ms 50; max_retries = 100; backoff = None }
      else None
    in
    let o = Workload.Driver.run w ?options ~transport ~threads ~calls ~proc () in
    say "calls:            %d x %s (%d threads)" o.Workload.Driver.calls
      (match proc with
      | Workload.Driver.Null -> "Null()"
      | Workload.Driver.Max_result -> "MaxResult(b)"
      | Workload.Driver.Max_arg -> "MaxArg(b)"
      | Workload.Driver.Get_data n -> Printf.sprintf "GetData(%d)" n)
      o.Workload.Driver.threads;
    (* A run without failures prints as it always has; the latency
       lines cover the calls that completed. *)
    let failed = o.Workload.Driver.failed in
    let completed = o.Workload.Driver.calls - failed in
    if failed > 0 then say "failed calls:     %d (completed %d)" failed completed;
    say "elapsed:          %s of simulated time" (Sim.Time.span_to_string o.Workload.Driver.elapsed);
    say "rate:             %.0f RPC/s" o.Workload.Driver.rpcs_per_sec;
    if completed = 0 then say "mean latency:     no call completed"
    else say "mean latency:     %s" (Sim.Time.span_to_string o.Workload.Driver.mean_latency);
    say "throughput:       %.2f Mbit/s of payload" o.Workload.Driver.megabits_per_sec;
    say "CPUs busy:        caller %.2f, server %.2f" o.Workload.Driver.caller_busy_cpus
      o.Workload.Driver.server_busy_cpus;
    say "retransmissions:  %d" o.Workload.Driver.retransmissions;
    if completed = 0 then say "latency:          no call completed"
    else begin
      let p q = Sim.Time.span_to_string (Workload.Driver.percentile o q) in
      say "latency:          p50 %s   p90 %s   p99 %s   max %s" (p 0.50) (p 0.90) (p 0.99) (p 1.0)
    end;
    if metrics then begin
      say "";
      let snap =
        Obs.Metrics.Snapshot.take w.Workload.World.obs.Obs.Ctx.metrics
          ~at:(Sim.Engine.now w.Workload.World.eng)
      in
      print_string
        (Report.Table.render
           (Obs.Metrics.Snapshot.to_table ~id:"metrics" ~title:"Metrics after the run" snap))
    end
  in
  let proc =
    Arg.(value & opt proc_conv Workload.Driver.Null & info [ "proc" ] ~doc:"Procedure to call.")
  in
  let threads = Arg.(value & opt (int_at_least 1) 1 & info [ "threads" ] ~doc:"Caller threads.") in
  let calls = Arg.(value & opt (int_at_least 1) 1000 & info [ "calls" ] ~doc:"Total calls.") in
  let bulk =
    let max = Workload.Test_interface.get_data_max in
    Arg.(
      value
      & opt (some (int_within 0 max)) None
      & info [ "bulk" ] ~docv:"BYTES"
          ~doc:
            (Printf.sprintf "Call GetData(BYTES) instead (multi-packet results), at most %d." max))
  in
  let loss =
    Arg.(
      value
      & opt probability 0.
      & info [ "loss" ] ~doc:"Packet loss probability on the wire, in [0, 1).")
  in
  let transport =
    Arg.(
      value
      & opt
          (enum
             [ ("sim", `Auto); ("local", `Local); ("decnet", `Decnet); ("socket", `Socket) ])
          `Auto
      & info [ "transport" ]
          ~doc:
            "Bind-time transport: $(b,sim) (default; the packet exchange over the simulated \
             Ethernet), $(b,local) (same-machine shared memory, the paper's local call), \
             $(b,decnet) (a DECNet session), or $(b,socket) — a real loopback UDP socket \
             carrying the same frame bytes, reported as measured-vs-calibrated \
             cross-validation.")
  in
  let metrics =
    Arg.(
      value
      & flag
      & info [ "metrics" ] ~doc:"Print the full metrics-registry snapshot after the run.")
  in
  Cmd.v
    (Cmd.info "call" ~doc:"Run an ad-hoc RPC workload under a chosen configuration.")
    Term.(
      const run $ configs_term $ seed_term $ proc $ threads $ calls $ bulk $ loss $ transport
      $ metrics)

(* {1 firefly breakdown} *)

(* Silent-loss warnings go to stderr, so they never corrupt the CSV or
   timeline on stdout. *)
let warn_trace_loss tr =
  if Sim.Trace.dropped tr > 0 then
    Printf.eprintf "trace: %d spans DROPPED at the capacity bound — the window is incomplete\n%!"
      (Sim.Trace.dropped tr)

(* Every span of the window in start order, after the calls' latency
   and the journal's completeness. *)
let print_timeline ~journal ~windows spans =
  (match
     List.map (fun w -> Sim.Time.diff w.Obs.Attrib.w_stop w.Obs.Attrib.w_start) windows
   with
  | [ l ] -> say "one warmed-up call: %s" (Sim.Time.span_to_string l)
  | ls ->
    let total = Sim.Time.span_sum ls in
    say "%d warmed-up calls, mean %s" (List.length ls)
      (Sim.Time.span_to_string (Sim.Time.span_scale (1. /. float_of_int (List.length ls)) total)));
  say "journal: %d events retained, %d dropped (of %d recorded)" (Obs.Journal.length journal)
    (Obs.Journal.dropped journal) (Obs.Journal.total journal);
  say "";
  say "%-10s %-9s %-38s %10s" "time(us)" "site" "step" "cost(us)";
  let spans =
    List.sort (fun a b -> Sim.Time.compare a.Sim.Trace.start_at b.Sim.Trace.start_at) spans
  in
  let origin =
    match spans with
    | [] -> Sim.Time.zero
    | s :: _ -> s.Sim.Trace.start_at
  in
  List.iter
    (fun s ->
      say "%-10.0f %-9s %-38s %10.1f"
        (Sim.Time.to_us (Sim.Time.diff s.Sim.Trace.start_at origin))
        s.Sim.Trace.site s.Sim.Trace.label
        (Sim.Time.to_us (Sim.Trace.duration s)))
    spans

let breakdown_cmd =
  let run (caller_config, server_config) seed proc calls threads pctl check out format =
    let w = Workload.World.create ~caller_config ~server_config ~seed ~idle_load:false () in
    let windows = Workload.Driver.run_traced w ~threads ~calls ~proc () in
    let tr = Sim.Engine.trace w.Workload.World.eng in
    let spans = Sim.Trace.spans tr in
    let journal = w.Workload.World.obs.Obs.Ctx.journal in
    let percentile = Option.map (fun p -> p /. 100.) pctl in
    let r = Obs.Attrib.attribute ~spans ~windows () in
    warn_trace_loss tr;
    (match (out, format) with
    | Some path, _ ->
      Obs.Trace_export.write_file ~path (Obs.Trace_export.chrome_trace ~journal ~spans ());
      say "wrote %d spans (%d calls) to %s — open at https://ui.perfetto.dev" (List.length spans)
        calls path
    | None, `Table -> print_string (Report.Table.render (Obs.Attrib.table ?percentile r))
    | None, `Csv -> print_string (Obs.Attrib.to_csv ?percentile r)
    | None, `Timeline -> print_timeline ~journal ~windows spans);
    if check then begin
      (* The gate: conservation on every call, plus (for the two
         calibrated scenarios) drift against the Table VI constants. *)
      let scenario =
        match proc with
        | Workload.Driver.Null -> Some Obs.Attrib.Null_call
        | Workload.Driver.Max_arg -> Some Obs.Attrib.Max_arg_call
        | _ -> None
      in
      let result =
        match scenario with
        | Some scenario -> Obs.Attrib.check r ~scenario
        | None ->
          if Obs.Attrib.conservation_ok r then Ok ()
          else
            Error
              [
                Printf.sprintf "conservation: worst call attributed only %.2f%% of its latency"
                  (100. *. r.Obs.Attrib.r_min_coverage);
              ]
      in
      match result with
      | Ok () ->
        say "check: OK — %.2f%% of end-to-end latency attributed (worst call %.2f%%)"
          (100. *. r.Obs.Attrib.r_coverage)
          (100. *. r.Obs.Attrib.r_min_coverage)
      | Error msgs ->
        List.iter (fun m -> say "check: FAIL — %s" m) msgs;
        Stdlib.exit 1
    end
  in
  let proc =
    Arg.(
      value & opt proc_conv Workload.Driver.Null & info [ "proc" ] ~doc:"Procedure to attribute.")
  in
  let calls =
    Arg.(
      value
      & opt (int_at_least 1) 20
      & info [ "calls" ] ~docv:"N" ~doc:"Timed calls to aggregate over.")
  in
  let threads =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "threads" ] ~docv:"N"
          ~doc:"Caller threads sharing the timed calls; above 1, queueing stages appear.")
  in
  let pctl =
    Arg.(
      value
      & opt (some percent) None
      & info [ "percentile" ] ~docv:"P"
          ~doc:"Add a per-stage percentile column, P from 0 to 100, e.g. $(b,--percentile 95).")
  in
  let check =
    Arg.(
      value
      & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero unless every call's attributed time (stages + queueing) reaches 99% \
             of its measured latency and, for null/maxarg, no Table VI stage drifts beyond \
             tolerance from its calibrated cost.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the window's Perfetto/chrome://tracing JSON timeline to $(docv) instead of \
             printing it.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("csv", `Csv); ("timeline", `Timeline) ]) `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(b,table) (default): the per-stage attribution; $(b,csv): the same rows as CSV; \
             $(b,timeline): every span of the window in start order, one line each.")
  in
  Cmd.v
    (Cmd.info "breakdown"
       ~doc:
         "Causal latency attribution: run warmed-up traced calls, stitch each call's spans \
          across both machines and the wire, and account its end-to-end latency into per-stage \
          service time, identified queueing and an explicit unattributed residual (a live \
          re-derivation of Tables VI-VIII).  $(b,--threads) adds concurrent callers, \
          $(b,--format) picks the view, $(b,--out) exports the span timeline and $(b,--check) \
          enforces conservation and calibration drift bounds.")
    Term.(
      const run $ configs_term $ seed_term $ proc $ calls $ threads $ pctl $ check $ out $ format)

(* {1 firefly check} *)

let check_cmd =
  let run config seeds base_seed matrix out_dir verbose jobs =
    let summary =
      if matrix then begin
        let progress cell seed =
          if verbose then say "[%s] seed %d..." (Check.Explorer.cell_to_string cell) seed
        in
        Check.Explorer.explore_matrix ~progress ~jobs config ~base_seed ~seeds_per_cell:seeds
      end
      else begin
        let progress seed = if verbose then say "seed %d..." seed in
        Check.Explorer.explore ~progress ~jobs config ~base_seed ~seeds
      end
    in
    let failures = summary.Check.Explorer.failures in
    say "%d seed(s) explored: %d invariant-violating run(s)" summary.Check.Explorer.seeds_run
      (List.length failures);
    List.iter
      (fun o ->
        say "";
        Format.printf "%a@." Check.Explorer.pp_outcome o)
      failures;
    (* Artifacts for CI: the shrunk plan (replayable text) and a
       Perfetto trace of the minimal reproducer, one pair per seed. *)
    (match out_dir with
    | Some dir when failures <> [] ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun (o : Check.Explorer.outcome) ->
          let base = Filename.concat dir (Printf.sprintf "seed-%d" o.Check.Explorer.seed) in
          let oc = open_out (base ^ "-plan.txt") in
          Format.fprintf
            (Format.formatter_of_out_channel oc)
            "%a@." Check.Explorer.pp_outcome o;
          close_out oc;
          Obs.Trace_export.write_file ~path:(base ^ "-trace.json")
            (Obs.Trace_export.chrome_trace ~spans:o.Check.Explorer.spans ());
          say "artifacts: %s-plan.txt, %s-trace.json" base base)
        failures
    | Some _ | None -> ());
    if failures <> [] then Stdlib.exit 1
  in
  (* The explored workload: a Check.Explorer.config whose fields' defaults
     are [default_config]'s, checked by [Explorer.validate]. *)
  let d = Check.Explorer.default_config in
  let config threads calls_per_thread payload bug fifo max_steps uniproc streaming secured =
    Check.Explorer.validate
      {
        Check.Explorer.threads;
        calls_per_thread;
        payload;
        bug;
        tie_break = (if fifo then `Fifo else d.tie_break);
        max_steps;
        uniproc;
        streaming;
        secured;
      }
  in
  let threads = Arg.(value & opt int d.threads & info [ "threads" ] ~doc:"Caller threads per run.") in
  let calls = Arg.(value & opt int d.calls_per_thread & info [ "calls" ] ~doc:"Calls per thread.") in
  let payload =
    Arg.(
      value
      & opt int d.payload
      & info [ "payload" ] ~docv:"BYTES" ~doc:"GetData result size for the bulk calls.")
  in
  let bug =
    Arg.(
      value
      & opt (enum Check.Explorer.[ ("none", No_bug); ("no-retransmit", No_retransmit) ]) d.bug
      & info [ "bug" ]
          ~doc:
            "Intentionally cripple the protocol to demonstrate detection: $(b,no-retransmit) \
             sets the caller's retry budget to zero.")
  in
  let fifo =
    Arg.(
      value
      & flag
      & info [ "fifo" ]
          ~doc:"Use FIFO ordering for same-instant events instead of seeded random tie-breaking.")
  in
  let max_steps =
    Arg.(value & opt int d.max_steps & info [ "max-steps" ] ~doc:"Maximum fault-plan length.")
  in
  let uniproc =
    Arg.(value & flag & info [ "uniproc" ] ~doc:"Run single-CPU machines (with the section-5 scheduling fix).")
  in
  let streaming =
    Arg.(
      value
      & flag
      & info [ "streaming" ] ~doc:"Stream result fragments without per-fragment acks.")
  in
  let secured =
    Arg.(value & flag & info [ "secured" ] ~doc:"Seal every call under a shared key.")
  in
  let seeds =
    Arg.(
      value
      & opt (int_at_least 1) 20
      & info [ "seeds" ]
          ~doc:"Number of seeds to explore (with $(b,--matrix): seeds per matrix cell).")
  in
  let base_seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"First seed.") in
  let matrix =
    Arg.(
      value
      & flag
      & info [ "matrix" ]
          ~doc:
            "Sweep the full configuration matrix — uniprocessor/multiprocessor, \
             stop-and-wait/streaming results, clear/secured calls, three payload regimes — \
             running $(b,--seeds) fault plans in each of the 24 cells.  Overrides \
             $(b,--uniproc), $(b,--streaming), $(b,--secured) and $(b,--payload).")
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:
            "On failure, write each shrunk plan and its Perfetto trace into $(docv) \
             (created if missing).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each seed as it runs.") in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Deterministic simulation testing: run seeded random fault plans against the \
          two-Firefly world, checking protocol invariants (at-most-once execution, packet-pool \
          conservation, monotonic virtual time, completion under recoverable faults).  On a \
          violation, prints the seed and a shrunk minimal fault plan that replays it.")
    Term.(
      const run
      $ term_result' ~usage:true
          (const config $ threads $ calls $ payload $ bug $ fifo $ max_steps $ uniproc
          $ streaming $ secured)
      $ seeds $ base_seed $ matrix $ out_dir $ verbose $ jobs_term)

(* {1 firefly fleet} *)

let fleet_cmd =
  let run spec seeds jobs check trace out =
    let seed = spec.Fleet.Scenario.s_seed in
    let run_one seed =
      let report, artifacts =
        Fleet.Scenario.run ~trace:(trace || out <> None) { spec with Fleet.Scenario.s_seed = seed }
      in
      (report, artifacts, Fleet.Scenario.render report)
    in
    let results =
      (* Each seed's cluster owns its engine, so seeds fan out over
         worker domains; rendering to strings and printing in seed
         order keeps the output independent of [jobs]. *)
      Par.Pool.map_list ~jobs run_one (List.init seeds (fun i -> seed + i))
    in
    List.iteri
      (fun i (_, _, body) ->
        if i > 0 then say "";
        if seeds > 1 then say "### seed %d" (seed + i);
        print_string body)
      results;
    (match out with
    | Some path ->
      let _, artifacts, _ = List.hd results in
      let json =
        Obs.Trace_export.chrome_trace
          ~journal:artifacts.Fleet.Scenario.a_obs.Obs.Ctx.journal
          ~spans:artifacts.Fleet.Scenario.a_spans ()
      in
      Obs.Trace_export.write_file ~path json;
      say "wrote %d spans to %s — open at https://ui.perfetto.dev"
        (List.length artifacts.Fleet.Scenario.a_spans)
        path
    | None -> ());
    if check then begin
      let failures =
        List.concat_map
          (fun (report, _, _) ->
            match Fleet.Scenario.check report with Ok () -> [] | Error es -> es)
          results
      in
      match failures with
      | [] -> say "check: OK — conservation, quiescence and concurrency invariants hold"
      | es ->
        List.iter (fun m -> say "check: FAIL — %s" m) es;
        Stdlib.exit 1
    end
  in
  (* The scenario: a Fleet.Scenario.spec whose fields' defaults are
     [Scenario.default]'s, checked by [Scenario.validate].  The record
     holds one arrival (closed, zero think time); --arrival picks its
     kind and --rate, --alpha or --think fill it in. *)
  let d = Fleet.Scenario.default in
  let spec s_nodes s_clients s_calls arrival rate alpha think s_kind s_seed s_payload
      s_straggler_speedup s_switch_latency_us s_egress_capacity =
    let s_arrival =
      match arrival with
      | `Poisson -> Fleet.Gen.Poisson { rate_per_sec = rate }
      | `Pareto -> Fleet.Gen.Pareto { alpha; rate_per_sec = rate }
      | `Closed -> Fleet.Gen.Closed { think_us = think }
    in
    Fleet.Scenario.validate
      {
        Fleet.Scenario.s_nodes;
        s_clients;
        s_calls;
        s_arrival;
        s_kind;
        s_seed;
        s_payload;
        s_straggler_speedup;
        s_switch_latency_us;
        s_egress_capacity;
      }
  in
  let nodes = Arg.(value & opt int d.s_nodes & info [ "nodes" ] ~doc:"Machines in the cluster.") in
  let clients =
    Arg.(value & opt int d.s_clients & info [ "clients" ] ~doc:"Client slots fleet-wide.")
  in
  let calls = Arg.(value & opt int d.s_calls & info [ "calls" ] ~doc:"Total calls to issue.") in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("poisson", `Poisson); ("pareto", `Pareto); ("closed", `Closed) ]) `Closed
      & info [ "arrival" ]
          ~doc:
            "Arrival process: $(b,closed) (concurrency-bounded loop, default), $(b,poisson) \
             (open-loop, exponential inter-arrivals) or $(b,pareto) (open-loop, heavy-tailed \
             inter-arrivals).")
  in
  let rate =
    Arg.(
      value
      & opt float 200.
      & info [ "rate" ] ~docv:"PER_SEC"
          ~doc:
            "Fleet-wide offered load for the open-loop arrivals (calls per second).  The \
             4-node fleet sustains roughly 350 closed-loop calls/s; offering more than that \
             open-loop demonstrates divergence, not throughput.")
  in
  let alpha =
    Arg.(
      value
      & opt float 1.5
      & info [ "alpha" ] ~doc:"Pareto tail index (must be > 1 so the mean exists).")
  in
  let think =
    Arg.(
      value
      & opt float 0.
      & info [ "think" ] ~docv:"US" ~doc:"Closed-loop think time between calls (microseconds).")
  in
  let scenario =
    Arg.(
      value
      & opt
          (enum
             Fleet.Scenario.[ ("uniform", Uniform); ("incast", Incast); ("straggler", Straggler) ])
          d.s_kind
      & info [ "scenario" ]
          ~doc:
            "Placement: $(b,uniform) (every node serves and calls), $(b,incast) (node 0 is the \
             only server) or $(b,straggler) (uniform with the last node's CPUs slowed).")
  in
  let seed = Arg.(value & opt int d.s_seed & info [ "seed" ] ~doc:"First simulation seed.") in
  let seeds =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "seeds" ] ~docv:"N" ~doc:"Run N seeds (seed, seed+1, ...) and print each report.")
  in
  let payload =
    Arg.(
      value
      & opt int d.s_payload
      & info [ "payload" ] ~docv:"BYTES"
          ~doc:"Result payload: 0 calls Null(), otherwise GetData($(docv)).")
  in
  let straggler_speedup =
    Arg.(
      value
      & opt float d.s_straggler_speedup
      & info [ "straggler-speedup" ]
          ~doc:"Straggler node CPU speed relative to the rest (only with --scenario straggler).")
  in
  let switch_latency =
    Arg.(
      value
      & opt float d.s_switch_latency_us
      & info [ "switch-latency" ] ~docv:"US" ~doc:"Switch fabric latency (microseconds).")
  in
  let egress_capacity =
    Arg.(
      value
      & opt int d.s_egress_capacity
      & info [ "egress-capacity" ] ~docv:"FRAMES"
          ~doc:"Per-port egress queue bound; overflow frames are dropped (incast loss).")
  in
  let check =
    Arg.(
      value
      & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero unless conservation (issued = completed + failed), quiescence (no \
             leaked fragment sinks, no stuck callers) and the closed-loop concurrency bound \
             hold.")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Record simulator spans during the run.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the first seed's Perfetto/chrome://tracing JSON timeline to $(docv) \
             (implies $(b,--trace)).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Run an N-node fleet scenario over the switched topology: uniform, incast or straggler \
          placement, open-loop (Poisson/Pareto) or closed-loop clients, per-node and fleet-wide \
          p50/p99/p99.9 and a saturation breakdown naming the first bottleneck.")
    Term.(
      const run
      $ term_result' ~usage:true
          (const spec $ nodes $ clients $ calls $ arrival $ rate $ alpha $ think $ scenario
          $ seed $ payload $ straggler_speedup $ switch_latency $ egress_capacity)
      $ seeds $ jobs_term $ check $ trace $ out)

(* {1 firefly fuzz} *)

let fuzz_cmd =
  let run seed iters corpus_dir canary no_sweep =
    if canary then begin
      (* Self-test: plant a known trust-the-length bug in Udp.decode
         and require the fuzzer to rediscover it. *)
      let found, report = Fuzz.Driver.canary ~seed ~iters () in
      print_string (Fuzz.Driver.to_string report);
      if found then
        say "canary: the planted Udp.decode length bug WAS found — the fuzzer sees real bugs."
      else begin
        say "canary: the planted Udp.decode length bug was NOT found within %d iterations." iters;
        Stdlib.exit 1
      end
    end
    else begin
      (* Replay any persisted reproducers first: a corpus failure is a
         regression even before new fuzzing starts. *)
      let replay_failures =
        match corpus_dir with
        | None -> []
        | Some dir ->
          let results = Fuzz.Driver.replay_dir ~dir in
          List.iter
            (fun (path, f) ->
              match f with
              | None -> say "replay %s: ok" path
              | Some f -> say "replay %s: %s" path (Fuzz.Oracle.to_string f))
            results;
          List.filter (fun (_, f) -> f <> None) results
      in
      let report = Fuzz.Driver.run ~sweep:(not no_sweep) ~seed ~iters () in
      print_string (Fuzz.Driver.to_string report);
      (match corpus_dir with
      | Some dir when report.Fuzz.Driver.r_failures <> [] ->
        List.iter (fun p -> say "reproducer written: %s" p)
          (Fuzz.Driver.write_failures ~dir report);
        say "replay later with: firefly fuzz --corpus-dir %s --iters 1" dir
      | Some _ | None -> ());
      if report.Fuzz.Driver.r_failures <> [] || replay_failures <> [] then Stdlib.exit 1
    end
  in
  let seed =
    Arg.(
      value
      & opt (int_at_least 0) 1
      & info [ "seed" ] ~doc:"Fuzz seed, >= 0 (the whole run is a pure function of it).")
  in
  let iters =
    Arg.(
      value
      & opt (int_at_least 1) 10_000
      & info [ "iters" ] ~docv:"N"
          ~doc:
            "Mutated inputs to execute, including the systematic truncation sweep that runs \
             first.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:
            "Replay every $(i,*.bin) reproducer in $(docv) before fuzzing, and persist any new \
             minimized reproducer there (created if missing).")
  in
  let canary =
    Arg.(
      value
      & flag
      & info [ "canary" ]
          ~doc:
            "Self-test: plant a known length-trusting bug in the UDP decoder and verify the \
             fuzzer finds it.  Exits 0 only if the planted bug is rediscovered.")
  in
  let no_sweep =
    Arg.(
      value
      & flag
      & info [ "no-sweep" ] ~doc:"Skip the exhaustive truncation sweep; random mutation only.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Deterministic structure-aware fuzzing of the wire surface: mutate valid frames \
          (truncation at every offset, bit flips, length/version/count skew, header splicing) \
          and drive every input through the Ethernet/IPv4/UDP/RPC decoders and the full \
          frame parser, checking that no exception escapes, that accepted headers re-encode \
          round-trip, and that the zero-copy view path decodes byte-identically to the \
          copying path.  Failures are shrunk to minimized reproducers.")
    Term.(const run $ seed $ iters $ corpus_dir $ canary $ no_sweep)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "firefly" ~version:"1.0.0"
             ~doc:"A simulated reproduction of 'Performance of Firefly RPC' (SOSP 1989).")
          [
            list_cmd;
            repro_cmd;
            call_cmd;
            breakdown_cmd;
            fleet_cmd;
            check_cmd;
            fuzz_cmd;
          ]))
