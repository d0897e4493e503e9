type export_entry = { ee_runtime : Runtime.t; ee_intf : Idl.interface }

type t = {
  table : (string * int, export_entry) Hashtbl.t;
  resolve : caller:Nub.Machine.t -> server:Nub.Machine.t -> Frames.endpoint option;
  (* One DECNet engine per node, made on the node's first session.
     They belong to this binder's world and are freed with it. *)
  mutable endpoints : (Node.t * Decnet.endpoint) list;
}

let create ?(resolve = fun ~caller:_ ~server:_ -> None) () =
  { table = Hashtbl.create 16; resolve; endpoints = [] }

let decnet_endpoint t node =
  match List.assq_opt node t.endpoints with
  | Some ep -> ep
  | None ->
    let ep = Decnet.create node in
    t.endpoints <- (node, ep) :: t.endpoints;
    ep

let export ?auth t runtime intf ~impls ~workers =
  let key = (intf.Idl.intf_name, intf.Idl.intf_version) in
  if Hashtbl.mem t.table key then
    invalid_arg
      (Printf.sprintf "Binder.export: %s v%d already exported" intf.Idl.intf_name
         intf.Idl.intf_version);
  Runtime.export ?auth runtime intf ~impls ~workers;
  Hashtbl.replace t.table key { ee_runtime = runtime; ee_intf = intf }

let unbound intf detail =
  Rpc_error.fail
    (Rpc_error.Unbound_interface
       (Printf.sprintf "%s v%d%s" intf.Idl.intf_name intf.Idl.intf_version detail))

let bind t runtime ~server intf ?options ?auth ?(transport = `Auto) () =
  if not (Runtime.is_exported server intf) then unbound intf "";
  let server_machine = Runtime.machine server in
  if Runtime.machine runtime == server_machine then Runtime.bind_local ~server intf
  else
    match transport with
    | `Local ->
      (* Shared memory cannot reach another machine; an explicit
         request for it against a remote exporter is a binding error,
         not something to silently downgrade. *)
      unbound intf " (local transport requested, but the exporter is remote)"
    | `Decnet ->
      (* Make sure the exporter is listening, then bind a session. *)
      Runtime.decnet_listen server (decnet_endpoint t (Runtime.node server));
      Runtime.bind_decnet runtime
        ~ep:(decnet_endpoint t (Runtime.node runtime))
        ~peer:(Nub.Machine.mac server_machine) ~server_space:(Runtime.space server) intf
    | `Auto ->
      let dst =
        match t.resolve ~caller:(Runtime.machine runtime) ~server:server_machine with
        | Some next_hop -> next_hop
        | None ->
          { Frames.mac = Nub.Machine.mac server_machine; ip = Nub.Machine.ip server_machine }
      in
      let options =
        match options with
        | Some o -> o
        | None -> Runtime.default_options
      in
      Runtime.bind_ether ?auth ~dst ~server_space:(Runtime.space server) intf ~options

let import t runtime ~name ~version ?options ?auth ?transport () =
  match Hashtbl.find_opt t.table (name, version) with
  | None ->
    Rpc_error.fail (Rpc_error.Unbound_interface (Printf.sprintf "%s v%d" name version))
  | Some ee -> bind t runtime ~server:ee.ee_runtime ee.ee_intf ?options ?auth ?transport ()
