module Engine = Sim.Engine
module Time = Sim.Time
module Machine = Nub.Machine

type node = {
  nd_id : int;
  nd_name : string;
  nd_machine : Machine.t;
  nd_rpc : Rpc.Node.t;
  nd_rt : Rpc.Runtime.t;
  nd_hist : Obs.Metrics.Histogram.t;
}

type t = {
  cl_eng : Engine.t;
  cl_obs : Obs.Ctx.t;
  cl_switch : Topology.t;
  cl_nodes : node array;
  cl_binder : Rpc.Binder.t;
  mutable cl_binds : int;
  cl_fleet_hist : Obs.Metrics.Histogram.t;
}

let max_nodes = 200

let create ?(seed = 42) ?(config = Hw.Config.default) ?config_of
    ?switch_latency ?egress_capacity ?(pool_buffers = 64) ~nodes () =
  if nodes < 2 then invalid_arg "Cluster.create: need at least 2 nodes";
  if nodes > max_nodes then
    invalid_arg (Printf.sprintf "Cluster.create: at most %d nodes (station addressing)" max_nodes);
  let obs = Obs.Ctx.create () in
  let eng = Engine.create ~seed () in
  let config_of = match config_of with Some f -> f | None -> fun _ -> config in
  let switch =
    Topology.create ~obs eng ~mbps:config.Hw.Config.ethernet_mbps ?latency:switch_latency
      ?egress_capacity ~ports:nodes ()
  in
  let mk_node i =
    let name = Printf.sprintf "node%d" i in
    let machine =
      Machine.create ~obs eng ~name ~config:(config_of i) ~link:(Topology.port_link switch i)
        ~station:(i + 1)
        ~ip:(Net.Ipv4.Addr.of_string (Printf.sprintf "16.0.%d.%d" ((i / 250) + 1) ((i mod 250) + 1)))
        ~pool_buffers ()
    in
    Topology.register_mac switch ~mac:(Machine.mac machine) ~port:i;
    let rpc = Rpc.Node.create machine in
    {
      nd_id = i;
      nd_name = name;
      nd_machine = machine;
      nd_rpc = rpc;
      nd_rt = Rpc.Runtime.create rpc ~space:1;
      nd_hist = Obs.Metrics.Registry.histogram obs.Obs.Ctx.metrics ~site:name ~name:"rpc.latency_us";
    }
  in
  {
    cl_eng = eng;
    cl_obs = obs;
    cl_switch = switch;
    cl_nodes = Array.init nodes mk_node;
    cl_binder = Rpc.Binder.create ();
    cl_binds = 0;
    cl_fleet_hist =
      Obs.Metrics.Registry.histogram obs.Obs.Ctx.metrics ~site:"fleet" ~name:"rpc.latency_us";
  }

let node t i =
  if i < 0 || i >= Array.length t.cl_nodes then invalid_arg "Cluster.node: no such node";
  t.cl_nodes.(i)

let nodes t = Array.length t.cl_nodes

let export t ~node:i ?(workers = 8) () =
  let n = node t i in
  Rpc.Runtime.export n.nd_rt Workload.Test_interface.interface
    ~impls:(Workload.Test_interface.impls ())
    ~workers

let bind t ~client ~server ?options () =
  t.cl_binds <- t.cl_binds + 1;
  Rpc.Binder.bind t.cl_binder (node t client).nd_rt ~server:(node t server).nd_rt
    Workload.Test_interface.interface ?options ()

let run_until_quiet t gate =
  let stop_at = Time.add (Engine.now t.cl_eng) (Time.sec 600) in
  Engine.run_while t.cl_eng (fun () ->
      (not (Sim.Gate.is_open gate)) && Time.(Engine.now t.cl_eng < stop_at));
  if not (Sim.Gate.is_open gate) then
    failwith "Cluster.run_until_quiet: workload did not complete within the time limit"

let leaked_sinks t =
  Array.fold_left (fun acc n -> acc + Rpc.Node.fragment_sinks n.nd_rpc) 0 t.cl_nodes

let stuck_callers t =
  Array.fold_left (fun acc n -> acc + Rpc.Node.outstanding_callers n.nd_rpc) 0 t.cl_nodes
