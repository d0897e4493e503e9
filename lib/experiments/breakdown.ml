module Trace = Sim.Trace
module Attrib = Obs.Attrib
module World = Workload.World
module Driver = Workload.Driver

(* One warmed-up traced call of [proc] in a fresh world without idle
   load, attributed by [Obs.Attrib], and the world's calling-program
   loop cost in us: the runner times the RPC alone, so the loop (Table
   VII's first row) is added back from the calibration. *)
let traced proc =
  let w = World.create ~idle_load:false () in
  let windows = Driver.run_traced w ~calls:1 ~proc () in
  let spans = Trace.spans (Sim.Engine.trace w.World.eng) in
  ( Attrib.attribute ~spans ~windows (),
    Sim.Time.to_us (Hw.Timing.caller_loop (Nub.Machine.timing w.World.caller)) )

(* A service stage's per-call mean; 0 when the call never ran it. *)
let mean r label =
  match
    List.find_opt
      (fun st -> String.equal st.Attrib.st_label label && st.Attrib.st_kind = Trace.Service)
      r.Attrib.r_stages
  with
  | Some st -> st.Attrib.st_mean_us
  | None -> 0.

type step = {
  step_label : string;
  paper_small_us : float;
  paper_large_us : float option;
  measured_small_us : float;
  measured_large_us : float;
}

(* Null() sends two 74-byte packets; MaxResult(b) a 74-byte call and a
   1514-byte result.  A span accrues once per packet for each row that
   names it, so dividing a stage mean by the rows naming its span gives
   one row's cost per packet. *)
let steps6 ~null ~maxr =
  List.map
    (fun (s : Attrib.table6_row) ->
      let rows =
        List.filter (fun o -> String.equal o.Attrib.t6_span s.t6_span) Attrib.table6_steps
        |> List.length |> float_of_int
      in
      let small = mean null s.t6_span /. (2. *. rows) in
      {
        step_label = s.t6_row;
        paper_small_us = s.t6_small_us;
        paper_large_us = (if s.t6_large_us <> s.t6_small_us then Some s.t6_large_us else None);
        measured_small_us = small;
        measured_large_us = (mean maxr s.t6_span /. rows) -. small;
      })
    Attrib.table6_steps

let table6 () = steps6 ~null:(fst (traced Driver.Null)) ~maxr:(fst (traced Driver.Max_result))

type runtime_step = { rt_label : string; rt_paper_us : float; rt_measured_us : float }

let runtime_steps =
  [
    ("Calling program (loop)", 16.);
    ("Calling stub (call & return)", 90.);
    ("Starter", 128.);
    ("Transporter (send call pkt)", 27.);
    ("Receiver (receive call pkt)", 158.);
    ("Server stub (call & return)", 68.);
    ("Null (the server procedure)", 10.);
    ("Receiver (send result pkt)", 27.);
    ("Transporter (receive result pkt)", 49.);
    ("Ender", 33.);
  ]

let steps7 (null, loop_us) =
  List.map
    (fun (label, paper) ->
      let loop = if String.equal label "Calling program (loop)" then loop_us else 0. in
      { rt_label = label; rt_paper_us = paper; rt_measured_us = mean null label +. loop })
    runtime_steps

let table7 () = steps7 (traced Driver.Null)

type accounting = {
  what : string;
  paper_calc_us : float;
  measured_calc_us : float;
  paper_elapsed_us : float;
  measured_elapsed_us : float;
}

let sum f l = List.fold_left (fun a s -> a +. f s) 0. l

let table8 () =
  let ((null, null_loop) as null_data) = traced Driver.Null in
  let maxr, maxr_loop = traced Driver.Max_result in
  let t6 = steps6 ~null ~maxr in
  let sum_small = sum (fun s -> s.measured_small_us) t6 in
  let sum_large = sum (fun s -> s.measured_large_us) t6 in
  let sum_rt = sum (fun s -> s.rt_measured_us) (steps7 null_data) in
  [
    {
      what = "Null()";
      paper_calc_us = 606. +. 954. +. 954.;
      measured_calc_us = sum_rt +. (2. *. sum_small);
      paper_elapsed_us = 2645.;
      measured_elapsed_us = null.Attrib.r_elapsed_us +. null_loop;
    };
    {
      what = "MaxResult(b)";
      paper_calc_us = 606. +. 550. +. 954. +. 4414.;
      measured_calc_us = sum_rt +. mean maxr "Marshalling" +. sum_small +. sum_large;
      paper_elapsed_us = 6347.;
      measured_elapsed_us = maxr.Attrib.r_elapsed_us +. maxr_loop;
    };
  ]

let fmt_opt = function
  | None -> "-"
  | Some v -> Report.Table.cell_f ~decimals:0 v

let table6_table () =
  let t6 = table6 () in
  Report.Table.make ~id:"table6" ~title:"Latency of steps in the send+receive operation"
    ~columns:[ "action"; "paper 74B"; "sim 74B"; "paper 1514B"; "sim 1514B" ]
    ~notes:
      [
        "74-byte column: traced call packet of a Null() RPC; 1514-byte: traced result packet of MaxResult(b)";
        "totals: paper 954 / 4414 us";
      ]
    (List.map
       (fun s ->
         [
           s.step_label;
           Report.Table.cell_f ~decimals:0 s.paper_small_us;
           Report.Table.cell_f ~decimals:0 s.measured_small_us;
           fmt_opt s.paper_large_us;
           Report.Table.cell_f ~decimals:0 s.measured_large_us;
         ])
       t6
    @ [
        [
          "TOTAL";
          "954";
          Report.Table.cell_f ~decimals:0 (sum (fun s -> s.measured_small_us) t6);
          "4414";
          Report.Table.cell_f ~decimals:0 (sum (fun s -> s.measured_large_us) t6);
        ];
      ])

let table7_table () =
  let t7 = table7 () in
  Report.Table.make ~id:"table7" ~title:"Latency of stubs and RPC runtime (Null())"
    ~columns:[ "procedure"; "paper us"; "sim us" ]
    ~notes:[ "traced from one simulated call; paper total 606 us" ]
    (List.map
       (fun s ->
         [
           s.rt_label;
           Report.Table.cell_f ~decimals:0 s.rt_paper_us;
           Report.Table.cell_f ~decimals:0 s.rt_measured_us;
         ])
       t7
    @ [ [ "TOTAL"; "606"; Report.Table.cell_f ~decimals:0 (sum (fun s -> s.rt_measured_us) t7) ] ])

let table8_table () =
  Report.Table.make ~id:"table8" ~title:"Calculated vs measured latency"
    ~columns:[ "procedure"; "paper calc"; "sim calc"; "paper measured"; "sim measured" ]
    ~notes:
      [
        "calc = sum of Table VI + Table VII components (+ 550 us marshalling for MaxResult)";
        "the paper under-accounts Null() by 131 us and over-accounts MaxResult by 177 us; the simulator carries the Null gap as an explicit 'Unattributed' charge";
      ]
    (List.map
       (fun a ->
         [
           a.what;
           Report.Table.cell_f ~decimals:0 a.paper_calc_us;
           Report.Table.cell_f ~decimals:0 a.measured_calc_us;
           Report.Table.cell_f ~decimals:0 a.paper_elapsed_us;
           Report.Table.cell_f ~decimals:0 a.measured_elapsed_us;
         ])
       (table8 ()))
