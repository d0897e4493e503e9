module Driver = Workload.Driver
module Config = Hw.Config

type latency_row = {
  caller_cpus : int;
  server_cpus : int;
  paper_sec_per_1000 : float;
  measured_sec_per_1000 : float;
}

let table10_points =
  [
    (5, 5, 2.69);
    (4, 5, 2.73);
    (3, 5, 2.85);
    (2, 5, 2.98);
    (1, 5, 3.96);
    (1, 4, 3.98);
    (1, 3, 4.13);
    (1, 2, 4.21);
    (1, 1, 4.81);
  ]

let table10 ?(calls = 1000) () =
  List.map
    (fun (c, s, paper) ->
      let o =
        Exp_common.throughput
          ~caller_config:(Exp_common.exerciser ~cpus:c)
          ~server_config:(Exp_common.exerciser ~cpus:s)
          ~threads:1 ~calls ~proc:Driver.Null ()
      in
      {
        caller_cpus = c;
        server_cpus = s;
        paper_sec_per_1000 = paper;
        measured_sec_per_1000 = Exp_common.seconds_per_10000 o /. 10.;
      })
    table10_points

type throughput_row = {
  t_caller_cpus : int;
  t_server_cpus : int;
  t_threads : int;
  paper_mbps : float;
  measured_mbps : float;
}

let table11_points =
  [
    (5, 5, [ 2.0; 3.4; 4.6; 4.7; 4.7 ]);
    (1, 5, [ 1.5; 2.3; 2.7; 2.7; 2.7 ]);
    (1, 1, [ 1.3; 2.0; 2.4; 2.5; 2.5 ]);
  ]

let table11 ?(calls_per_thread = 1000) () =
  List.concat_map
    (fun (c, s, papers) ->
      List.mapi
        (fun i paper ->
          let threads = i + 1 in
          let o =
            Exp_common.throughput
              ~caller_config:(Exp_common.exerciser ~cpus:c)
              ~server_config:(Exp_common.exerciser ~cpus:s)
              ~threads
              ~calls:(calls_per_thread * threads)
              ~proc:Driver.Max_result ()
          in
          {
            t_caller_cpus = c;
            t_server_cpus = s;
            t_threads = threads;
            paper_mbps = paper;
            measured_mbps = o.Driver.megabits_per_sec;
          })
        papers)
    table11_points

let table10_table ~quick =
  Report.Table.make ~id:"table10" ~title:"Calls to Null() with varying numbers of processors"
    ~columns:[ "caller CPUs"; "server CPUs"; "paper s/1000"; "sim s/1000" ]
    ~notes:[ "RPC Exerciser (hand stubs), swapped-lines fix installed, 1 caller thread" ]
    (List.map
       (fun r ->
         [
           string_of_int r.caller_cpus;
           string_of_int r.server_cpus;
           Report.Table.cell_f r.paper_sec_per_1000;
           Report.Table.cell_f r.measured_sec_per_1000;
         ])
       (table10 ~calls:(if quick then 200 else 1000) ()))

let table11_table ~quick =
  Report.Table.make ~id:"table11"
    ~title:"Throughput of MaxResult(b) with varying numbers of processors (Mbit/s)"
    ~columns:[ "caller CPUs"; "server CPUs"; "threads"; "paper Mbit/s"; "sim Mbit/s" ]
    ~notes:[ "RPC Exerciser stubs; 1000 calls per thread" ]
    (List.map
       (fun r ->
         [
           string_of_int r.t_caller_cpus;
           string_of_int r.t_server_cpus;
           string_of_int r.t_threads;
           Report.Table.cell_f ~decimals:1 r.paper_mbps;
           Report.Table.cell_f ~decimals:1 r.measured_mbps;
         ])
       (table11 ~calls_per_thread:(if quick then 100 else 1000) ()))
