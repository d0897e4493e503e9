module Config = Hw.Config

let exerciser ~cpus = { Config.default with hand_stubs = true; uniproc_fix = true; cpus }

let single_call ?caller_config ?server_config ~proc () =
  let w = Workload.World.create ?caller_config ?server_config () in
  Workload.Driver.measure_single_call w ~proc ()

(* The tables' runs are lossless, so a failed call is a fault of the
   model, not a figure to report. *)
let throughput ?caller_config ?server_config ?seed ?transport ~threads ~calls ~proc () =
  let w = Workload.World.create ?caller_config ?server_config ?seed () in
  let o = Workload.Driver.run w ?transport ~threads ~calls ~proc () in
  if o.Workload.Driver.failed > 0 then
    failwith (Printf.sprintf "Exp_common.throughput: %d of %d calls failed" o.failed calls);
  o

let seconds_per_10000 (o : Workload.Driver.outcome) =
  if o.Workload.Driver.rpcs_per_sec > 0. then 10000. /. o.Workload.Driver.rpcs_per_sec else 0.
