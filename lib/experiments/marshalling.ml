module Engine = Sim.Engine
module Time = Sim.Time
module Cpu_set = Hw.Cpu_set
module Machine = Nub.Machine
module Idl = Rpc.Idl
module Marshal = Rpc.Marshal
module Runtime = Rpc.Runtime
module Binder = Rpc.Binder
module World = Workload.World

type row = { label : string; paper_us : float; measured_us : float }

(* The measurement interface: one procedure per argument shape of
   Tables II-V, plus the Null() baseline. *)
let interface =
  let var_out name n = Idl.arg ~mode:Idl.Var_out name (Idl.T_var_bytes n) in
  Idl.interface ~name:"MarshalBench" ~version:1
    [
      Idl.proc "null" [];
      Idl.proc "ints1" [ Idl.arg "a" Idl.T_int ];
      Idl.proc "ints2" [ Idl.arg "a" Idl.T_int; Idl.arg "b" Idl.T_int ];
      Idl.proc "ints4"
        [
          Idl.arg "a" Idl.T_int;
          Idl.arg "b" Idl.T_int;
          Idl.arg "c" Idl.T_int;
          Idl.arg "d" Idl.T_int;
        ];
      Idl.proc "fixed4" [ Idl.arg ~mode:Idl.Var_out "b" (Idl.T_fixed_bytes 4) ];
      Idl.proc "fixed400" [ Idl.arg ~mode:Idl.Var_out "b" (Idl.T_fixed_bytes 400) ];
      Idl.proc "var1" [ var_out "b" 1440 ];
      Idl.proc "var1440" [ var_out "b" 1440 ];
      Idl.proc "text" [ Idl.arg "s" (Idl.T_text 1440) ];
    ]

let impls : Runtime.impl array =
  let body ctx =
    Cpu_set.charge ctx ~cat:"runtime" ~label:"Null (the server procedure)" (Time.us 10)
  in
  let nothing ctx _ = body ctx; [] in
  let fill n ctx _ =
    body ctx;
    [ Marshal.V_bytes (Bytes.make n 'm') ]
  in
  [|
    nothing;
    nothing;
    nothing;
    nothing;
    fill 4;
    fill 400;
    fill 1;
    fill 1440;
    nothing;
  |]

type sweep = (string, float) Hashtbl.t

(* One world, one local binding; measure each procedure's warmed-up
   local-call latency. *)
let measure () =
  let w = World.create ~idle_load:false () in
  Binder.export w.World.binder w.World.caller_rt interface ~impls ~workers:2;
  let binding = Binder.import w.World.binder w.World.caller_rt ~name:"MarshalBench" ~version:1 () in
  let results = Hashtbl.create 16 in
  let gate = Sim.Gate.create w.World.eng in
  let args_for name =
    match name with
    | "ints1" -> [ Marshal.V_int 1l ]
    | "ints2" -> [ Marshal.V_int 1l; Marshal.V_int 2l ]
    | "ints4" -> [ Marshal.V_int 1l; Marshal.V_int 2l; Marshal.V_int 3l; Marshal.V_int 4l ]
    | "fixed4" | "fixed400" | "var1" | "var1440" -> [ Marshal.V_bytes Bytes.empty ]
    | "text" -> assert false (* handled separately *)
    | _ -> []
  in
  Machine.spawn_thread w.World.caller ~name:"marshal-bench" (fun () ->
      Cpu_set.with_cpu (Machine.cpus w.World.caller) (fun ctx ->
          let client = Runtime.new_client w.World.caller_rt in
          let time_call name args =
            let once () = ignore (Runtime.call_by_name binding client ctx ~proc:name ~args) in
            once ();
            once ();
            let t0 = Engine.now w.World.eng in
            once ();
            Time.to_us (Time.diff (Engine.now w.World.eng) t0)
          in
          List.iter
            (fun name -> Hashtbl.replace results name (time_call name (args_for name)))
            [ "null"; "ints1"; "ints2"; "ints4"; "fixed4"; "fixed400"; "var1"; "var1440" ];
          List.iter
            (fun (key, v) -> Hashtbl.replace results key (time_call "text" [ v ]))
            [
              ("text_nil", Marshal.V_text None);
              ("text1", Marshal.V_text (Some "x"));
              ("text128", Marshal.V_text (Some (String.make 128 'x')));
            ]);
      Sim.Gate.open_ gate);
  World.run_until_quiet w gate;
  results

(* A scenario lookup that cannot fail anonymously: a missing row means
   the measurement sweep and the table definitions disagree, and the
   error should say which scenario is absent and which exist — a bare
   [Hashtbl.find] here used to surface as a context-free [Not_found]
   from deep inside the table renderer. *)
let overhead_of r name =
  match Hashtbl.find_opt r name with
  | Some v -> v
  | None ->
    let have = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) r []) in
    invalid_arg
      (Printf.sprintf
         "Experiments.Marshalling: no measurement for scenario %S (measured scenarios: %s)"
         name (String.concat ", " have))

let increment r name = overhead_of r name -. overhead_of r "null"

let table2 r =
  [
    { label = "1 integer"; paper_us = 8.; measured_us = increment r "ints1" };
    { label = "2 integers"; paper_us = 16.; measured_us = increment r "ints2" };
    { label = "4 integers"; paper_us = 32.; measured_us = increment r "ints4" };
  ]

let table3 r =
  [
    { label = "4 bytes"; paper_us = 20.; measured_us = increment r "fixed4" };
    { label = "400 bytes"; paper_us = 140.; measured_us = increment r "fixed400" };
  ]

let table4 r =
  [
    { label = "1 byte"; paper_us = 115.; measured_us = increment r "var1" };
    { label = "1440 bytes"; paper_us = 550.; measured_us = increment r "var1440" };
  ]

let table5 r =
  [
    { label = "NIL"; paper_us = 89.; measured_us = increment r "text_nil" };
    { label = "1 byte"; paper_us = 378.; measured_us = increment r "text1" };
    { label = "128 bytes"; paper_us = 659.; measured_us = increment r "text128" };
  ]

let to_table ~id ~title rows =
  Report.Table.make ~id ~title
    ~columns:[ "argument"; "paper us"; "measured us"; "delta" ]
    ~notes:[ "incremental elapsed time of a local RPC over local Null() (as in the paper)" ]
    (List.map
       (fun r ->
         [
           r.label;
           Report.Table.cell_f ~decimals:0 r.paper_us;
           Report.Table.cell_f ~decimals:0 r.measured_us;
           Printf.sprintf "%+.0f%%" (Report.Table.pct_delta ~paper:r.paper_us ~measured:r.measured_us);
         ])
       rows)

let tables () =
  let r = measure () in
  [
    to_table ~id:"table2" ~title:"Marshalling: 4-byte integers by value" (table2 r);
    to_table ~id:"table3" ~title:"Marshalling: fixed-length array, VAR OUT" (table3 r);
    to_table ~id:"table4" ~title:"Marshalling: variable-length array, VAR OUT" (table4 r);
    to_table ~id:"table5" ~title:"Marshalling: Text.T argument" (table5 r);
  ]
