module Engine = Sim.Engine
module Time = Sim.Time
module Config = Hw.Config
module Machine = Nub.Machine

type t = {
  eng : Engine.t;
  link : Hw.Ether_link.t;
  binder : Rpc.Binder.t;
  caller : Machine.t;
  server : Machine.t;
  caller_node : Rpc.Node.t;
  server_node : Rpc.Node.t;
  caller_rt : Rpc.Runtime.t;
  server_rt : Rpc.Runtime.t;
  obs : Obs.Ctx.t;
}

let create ?(caller_config = Config.default) ?(server_config = Config.default) ?(seed = 42)
    ?(tie_break = `Fifo) ?(workers = 8) ?(idle_load = true) ?(export_test = true) ?auth () =
  let obs = Obs.Ctx.create () in
  let eng = Engine.create ~seed ~tie_break () in
  let link = Hw.Ether_link.create ~obs eng ~mbps:caller_config.Config.ethernet_mbps in
  let caller =
    Machine.create ~obs eng ~name:"caller" ~config:caller_config ~link ~station:1
      ~ip:(Net.Ipv4.Addr.of_string "16.0.0.1") ()
  in
  let server =
    Machine.create ~obs eng ~name:"server" ~config:server_config ~link ~station:2
      ~ip:(Net.Ipv4.Addr.of_string "16.0.0.2") ()
  in
  let caller_node = Rpc.Node.create caller in
  let server_node = Rpc.Node.create server in
  let caller_rt = Rpc.Runtime.create caller_node ~space:1 in
  let server_rt = Rpc.Runtime.create server_node ~space:1 in
  let binder = Rpc.Binder.create () in
  if export_test then
    Rpc.Binder.export ?auth binder server_rt Test_interface.interface
      ~impls:(Test_interface.impls ())
      ~workers;
  if idle_load then begin
    Machine.start_idle_load caller;
    Machine.start_idle_load server
  end;
  { eng; link; binder; caller; server; caller_node; server_node; caller_rt; server_rt; obs }

let test_binding t ?options ?auth ?(transport = `Auto) () =
  let server =
    match transport with
    | `Local ->
      (* The paper's RPC-on-one-machine row (Table I): the Test
         interface served from the caller's own address space.
         Exported directly on the caller runtime — the binder's (name,
         version) slot already belongs to the remote server. *)
      if not (Rpc.Runtime.is_exported t.caller_rt Test_interface.interface) then
        Rpc.Runtime.export ?auth t.caller_rt Test_interface.interface
          ~impls:(Test_interface.impls ())
          ~workers:2;
      t.caller_rt
    | `Auto | `Decnet -> t.server_rt
  in
  Rpc.Binder.bind t.binder t.caller_rt ~server Test_interface.interface ?options ?auth
    ~transport ()

let add_machine t ~name ~config ~station ~ip =
  let m =
    Machine.create ~obs:t.obs t.eng ~name ~config ~link:t.link ~station
      ~ip:(Net.Ipv4.Addr.of_string ip) ()
  in
  let node = Rpc.Node.create m in
  let rt = Rpc.Runtime.create node ~space:1 in
  (m, node, rt)

let run_until_quiet ?(limit = Time.sec 600) t gate =
  let stop_at = Time.add (Engine.now t.eng) limit in
  Engine.run_while t.eng (fun () ->
      (not (Sim.Gate.is_open gate)) && Time.(Engine.now t.eng < stop_at));
  if not (Sim.Gate.is_open gate) then
    failwith "World.run_until_quiet: workload did not complete within the time limit"
