module Trace = Sim.Trace
module Time = Sim.Time

(* Latency-breakdown attribution: take the flat span dump of a traced
   window plus the measured per-call windows, and account every
   microsecond of each call's end-to-end latency to a named stage
   (service time), to identified queueing, or — explicitly — to an
   unattributed residual.  The books must balance: per call,

      service + queueing + residual = measured end-to-end latency

   exactly (the sweep partitions the window), and the conservation
   check demands the residual stay under a small fraction of the
   total.  Stage rows additionally aggregate raw durations across
   calls (mean/p50/p99, split into caller/server/wire columns) for a
   Table VI-style presentation and a drift check against the paper's
   calibrated constants. *)

type window = { w_call : int; w_start : Time.t; w_stop : Time.t }

type column = Caller | Server | Wire

type stage = {
  st_label : string;
  st_kind : Trace.kind;
  st_column : column;
  st_caller_us : float;  (* mean per-call raw us on the caller machine *)
  st_server_us : float;
  st_wire_us : float;
  st_mean_us : float;
  st_samples : float array;  (* per-call raw totals, sorted ascending *)
}

type call_account = {
  ca_call : int;
  ca_elapsed_us : float;
  ca_service_us : float;  (* exclusive: no interval counted twice *)
  ca_queue_us : float;
  ca_unattributed_us : float;
}

type report = {
  r_stages : stage list;
  r_calls : call_account list;
  r_elapsed_us : float;  (* means over calls *)
  r_service_us : float;
  r_queue_us : float;
  r_unattributed_us : float;
  r_coverage : float;  (* mean attributed fraction *)
  r_min_coverage : float;  (* worst call's attributed fraction *)
}

(* A stage no call touched reports 0 rather than raising. *)
let percentile st p =
  if Array.length st.st_samples = 0 then 0. else Sim.Stats.percentile st.st_samples p

let p50 st = percentile st 0.5
let p99 st = percentile st 0.99

let classify (s : Trace.span) =
  (* The wire and the interprocessor signal are latency no CPU pays
     for; everything else belongs to the machine it ran on, one of the
     standard world's two. *)
  if String.equal s.Trace.track "wire" then Wire
  else
    match s.Trace.site with
    | "caller" -> Caller
    | "server" -> Server
    | _ -> Wire

(* {1 The exclusive timeline sweep} *)

(* One call's spans, clipped to the measured window and projected onto
   integer nanoseconds. *)
type seg = { g_start : int; g_stop : int; g_kind : Trace.kind }

let sweep spans ~w =
  let t0 = Time.since_start_ns w.w_start and t1 = Time.since_start_ns w.w_stop in
  let segs =
    List.filter_map
      (fun (s : Trace.span) ->
        let a = max t0 (Time.since_start_ns s.Trace.start_at) in
        let b = min t1 (Time.since_start_ns s.Trace.stop_at) in
        if b > a then Some { g_start = a; g_stop = b; g_kind = s.Trace.kind } else None)
      spans
  in
  (* Elementary intervals between the distinct boundary points; each is
     attributed once — service wins over queueing wins over nothing, so
     overlapping accounts (a controller busy while a CPU computes, a
     queue wait enclosing the service that ends it) never double
     count. *)
  let bounds =
    List.sort_uniq compare (t0 :: t1 :: List.concat_map (fun g -> [ g.g_start; g.g_stop ]) segs)
  in
  let service = ref 0 and queue = ref 0 in
  let rec walk = function
    | a :: (b :: _ as rest) ->
      let len = b - a in
      let covering k = List.exists (fun g -> g.g_start <= a && g.g_stop >= b && g.g_kind = k) segs in
      if covering Trace.Service then service := !service + len
      else if covering Trace.Queue then queue := !queue + len;
      walk rest
    | _ -> ()
  in
  walk bounds;
  let us ns = float_of_int ns /. 1000. in
  let elapsed = t1 - t0 in
  {
    ca_call = w.w_call;
    ca_elapsed_us = us elapsed;
    ca_service_us = us !service;
    ca_queue_us = us !queue;
    ca_unattributed_us = us (elapsed - !service - !queue);
  }

(* {1 Grouping a window by call} *)

(* Causal order: by start time; an enclosing span (longer, same start)
   sorts before the work inside it; remaining ties resolve on the lane
   and label, then on recording order (the sort is stable). *)
let causal_compare (a : Trace.span) (b : Trace.span) =
  let c = Time.compare a.Trace.start_at b.Trace.start_at in
  if c <> 0 then c
  else
    let c = Time.span_compare (Trace.duration b) (Trace.duration a) in
    if c <> 0 then c
    else
      let c = String.compare a.Trace.site b.Trace.site in
      if c <> 0 then c
      else
        let c = String.compare a.Trace.track b.Trace.track in
        if c <> 0 then c else String.compare a.Trace.label b.Trace.label

(* Every call's spans in causal order, keyed by call id; background
   spans (no call id) belong to no call and are left out. *)
let by_call spans =
  let calls = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.call >= 0 then
        let earlier = Option.value (Hashtbl.find_opt calls s.Trace.call) ~default:[] in
        Hashtbl.replace calls s.Trace.call (s :: earlier))
    spans;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.stable_sort causal_compare (List.rev l))) calls;
  calls

(* {1 Building the report} *)

let attribute ~spans ~windows () =
  let windows = List.sort (fun a b -> compare a.w_call b.w_call) windows in
  let calls = by_call spans in
  let spans_of w = Option.value (Hashtbl.find_opt calls w.w_call) ~default:[] in
  let n_calls = max 1 (List.length windows) in
  (* Stage rows: raw per-call durations keyed by (label, kind), in order
     of first causal appearance so the table reads like the call. *)
  let order = ref [] in
  let by_stage : (string * Trace.kind, float array * float array) Hashtbl.t =
    Hashtbl.create 32
  in
  (* per stage: (per-call totals, per-column totals [caller;server;wire]) *)
  List.iteri
    (fun i w ->
      List.iter
        (fun (s : Trace.span) ->
          let key = (s.Trace.label, s.Trace.kind) and column = classify s in
          let totals, cols =
            match Hashtbl.find_opt by_stage key with
            | Some v -> v
            | None ->
              let v = (Array.make (List.length windows) 0., Array.make 3 0.) in
              Hashtbl.add by_stage key v;
              order := (key, column) :: !order;
              v
          in
          let d = Time.to_us (Trace.duration s) in
          totals.(i) <- totals.(i) +. d;
          let c =
            match column with
            | Caller -> 0
            | Server -> 1
            | Wire -> 2
          in
          cols.(c) <- cols.(c) +. d)
        (spans_of w))
    windows;
  let stages =
    List.rev_map
      (fun ((label, kind), column) ->
        let totals, cols = Hashtbl.find by_stage (label, kind) in
        let mean = Array.fold_left ( +. ) 0. totals /. float_of_int n_calls in
        let samples = Array.copy totals in
        Array.sort compare samples;
        {
          st_label = label;
          st_kind = kind;
          st_column = column;
          st_caller_us = cols.(0) /. float_of_int n_calls;
          st_server_us = cols.(1) /. float_of_int n_calls;
          st_wire_us = cols.(2) /. float_of_int n_calls;
          st_mean_us = mean;
          st_samples = samples;
        })
      !order
  in
  let accounts = List.map (fun w -> sweep (spans_of w) ~w) windows in
  let mean f = List.fold_left (fun a c -> a +. f c) 0. accounts /. float_of_int n_calls in
  let coverage c =
    if c.ca_elapsed_us > 0. then (c.ca_service_us +. c.ca_queue_us) /. c.ca_elapsed_us else 1.
  in
  {
    r_stages = stages;
    r_calls = accounts;
    r_elapsed_us = mean (fun c -> c.ca_elapsed_us);
    r_service_us = mean (fun c -> c.ca_service_us);
    r_queue_us = mean (fun c -> c.ca_queue_us);
    r_unattributed_us = mean (fun c -> c.ca_unattributed_us);
    r_coverage = (if accounts = [] then 1. else mean coverage);
    r_min_coverage =
      List.fold_left (fun acc c -> Float.min acc (coverage c)) 1. accounts;
  }

(* The least attributed fraction of any call's latency that conservation
   accepts. *)
let min_coverage = 0.99

let conservation_ok r = r.r_min_coverage >= min_coverage

(* {1 Drift against the paper's calibrated Table VI constants} *)

type scenario = Null_call | Max_arg_call

(* The paper's Table VI, its 14 rows in its order: each step's cost per
   packet at 74 and at 1514 bytes, and the span label that measures it.
   The UDP checksum is computed by the sender and verified by the
   receiver, so two rows name its one span. *)
type table6_row = { t6_row : string; t6_span : string; t6_small_us : float; t6_large_us : float }

let table6_steps =
  let row ?span t6_row t6_small_us t6_large_us =
    { t6_row; t6_span = Option.value span ~default:t6_row; t6_small_us; t6_large_us }
  in
  [
    row "Finish UDP header (Sender)" 59. 59.;
    row "Calculate UDP checksum" 45. 440.;
    row "Handle trap to Nub" 37. 37.;
    row "Queue packet for transmission" 39. 39.;
    row "Interprocessor interrupt to CPU 0" 10. 10.;
    row "Handle interprocessor interrupt" 76. 76.;
    row "Activate Ethernet controller" 22. 22.;
    row "QBus/Controller transmit latency" 70. 815.;
    row "Transmission time on Ethernet" 60. 1230.;
    row "QBus/Controller receive latency" 80. 835.;
    row "General I/O interrupt handler" 14. 14.;
    row "Handle interrupt for received pkt" 177. 177.;
    row "Calculate UDP checksum (receiver)" ~span:"Calculate UDP checksum" 45. 440.;
    row "Wakeup RPC thread" 220. 220.;
  ]

(* The distinct span labels of [table6_steps], in row order. *)
let table6_spans =
  List.fold_right
    (fun s acc -> s.t6_span :: List.filter (fun l -> not (String.equal l s.t6_span)) acc)
    table6_steps []

(* The packets one call exchanges: Null() sends and receives minimum
   frames; MaxArg(b) ships a maximum-size call packet and gets a
   minimum-size result back. *)
let packets = function
  | Null_call -> [ false; false ]
  | Max_arg_call -> [ true; false ]

(* A span accrues once per packet for every row that names it. *)
let expected_us scenario label =
  match List.filter (fun s -> String.equal s.t6_span label) table6_steps with
  | [] -> None
  | rows ->
    Some
      (List.fold_left
         (fun acc s ->
           List.fold_left
             (fun acc is_large -> acc +. if is_large then s.t6_large_us else s.t6_small_us)
             acc (packets scenario))
         0. rows)

type drift = { d_label : string; d_expected_us : float; d_measured_us : float; d_frac : float }

let drift r ~scenario =
  List.filter_map
    (fun st ->
      if st.st_kind <> Trace.Service then None
      else
        match expected_us scenario st.st_label with
        | None -> None
        | Some exp ->
          Some
            {
              d_label = st.st_label;
              d_expected_us = exp;
              d_measured_us = st.st_mean_us;
              d_frac = (if exp > 0. then Float.abs (st.st_mean_us -. exp) /. exp else 0.);
            })
    r.r_stages

(* A step drifts when it misses its calibrated cost by more than both
   25% and 15 us. *)
let tolerance_frac = 0.25
let tolerance_us = 15.

let check r ~scenario =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun c ->
      let covered = c.ca_service_us +. c.ca_queue_us in
      if c.ca_elapsed_us > 0. && covered /. c.ca_elapsed_us < min_coverage then
        err "call %d: only %.1f%% of %.0f us attributed (%.0f us unaccounted)" c.ca_call
          (100. *. covered /. c.ca_elapsed_us)
          c.ca_elapsed_us c.ca_unattributed_us)
    r.r_calls;
  let rows = drift r ~scenario in
  (* Every calibrated step must actually appear in the trace... *)
  List.iter
    (fun label ->
      if not (List.exists (fun d -> String.equal d.d_label label) rows) then
        err "step %S missing from the trace" label)
    table6_spans;
  (* ...and stay near its calibrated per-call cost. *)
  List.iter
    (fun d ->
      if
        d.d_frac > tolerance_frac
        && Float.abs (d.d_measured_us -. d.d_expected_us) > tolerance_us
      then
        err "step %S drifted: measured %.0f us vs calibrated %.0f us (%+.0f%%)" d.d_label
          d.d_measured_us d.d_expected_us
          (100. *. (d.d_measured_us -. d.d_expected_us) /. d.d_expected_us))
    rows;
  match List.rev !errors with
  | [] -> Ok ()
  | es -> Error es

(* {1 Rendering} *)

let kind_cell = function
  | Trace.Service -> "service"
  | Trace.Queue -> "queue"

let column_cell = function
  | Caller -> "caller"
  | Server -> "server"
  | Wire -> "wire"

let summary_rows r =
  let f = Report.Table.cell_f ~decimals:1 in
  [
    [ "ATTRIBUTED SERVICE"; ""; ""; ""; ""; f r.r_service_us; ""; "" ];
    [ "IDENTIFIED QUEUEING"; ""; ""; ""; ""; f r.r_queue_us; ""; "" ];
    [ "UNATTRIBUTED RESIDUAL"; ""; ""; ""; ""; f r.r_unattributed_us; ""; "" ];
    [ "END-TO-END"; ""; ""; ""; ""; f r.r_elapsed_us; ""; "" ];
  ]

let table ?percentile:(p_extra : float option) r =
  let f = Report.Table.cell_f ~decimals:1 in
  let pcol =
    match p_extra with
    | None -> []
    | Some p -> [ Printf.sprintf "p%g" (100. *. p) ]
  in
  let rows =
    List.map
      (fun st ->
        [
          st.st_label;
          kind_cell st.st_kind;
          f st.st_caller_us;
          f st.st_server_us;
          f st.st_wire_us;
          f st.st_mean_us;
          f (p50 st);
          f (p99 st);
        ]
        @
        match p_extra with
        | None -> []
        | Some p -> [ f (percentile st p) ])
      r.r_stages
    @ List.map
        (fun row ->
          row
          @
          match p_extra with
          | None -> []
          | Some _ -> [ "" ])
        (summary_rows r)
  in
  Report.Table.make ~id:"breakdown"
    ~title:"Latency breakdown attribution (per-call means, us)"
    ~columns:
      ([ "stage"; "kind"; "caller"; "server"; "wire"; "mean"; "p50"; "p99" ] @ pcol)
    ~notes:
      [
        Printf.sprintf "calls: %d; attributed %.2f%% of end-to-end latency (worst call %.2f%%)"
          (List.length r.r_calls) (100. *. r.r_coverage) (100. *. r.r_min_coverage);
        "service + queueing + residual = measured end-to-end, per call, exactly";
      ]
    rows

let to_csv ?percentile:(p_extra : float option) r =
  let buf = Buffer.create 1024 in
  let pcol =
    match p_extra with
    | None -> ""
    | Some p -> Printf.sprintf ",p%g_us" (100. *. p)
  in
  Buffer.add_string buf
    (Printf.sprintf "stage,kind,column,caller_us,server_us,wire_us,mean_us,p50_us,p99_us%s\n" pcol);
  let escape s = if String.contains s ',' then Printf.sprintf "%S" s else s in
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f" (escape st.st_label)
           (kind_cell st.st_kind) (column_cell st.st_column) st.st_caller_us st.st_server_us
           st.st_wire_us st.st_mean_us (p50 st) (p99 st));
      (match p_extra with
      | None -> ()
      | Some p -> Buffer.add_string buf (Printf.sprintf ",%.3f" (percentile st p)));
      Buffer.add_char buf '\n')
    r.r_stages;
  Buffer.add_string buf
    (Printf.sprintf "TOTAL service,,,,,,%.3f,,\nTOTAL queueing,,,,,,%.3f,,\n" r.r_service_us
       r.r_queue_us);
  Buffer.add_string buf
    (Printf.sprintf "TOTAL unattributed,,,,,,%.3f,,\nTOTAL end-to-end,,,,,,%.3f,,\n"
       r.r_unattributed_us r.r_elapsed_us);
  Buffer.contents buf
