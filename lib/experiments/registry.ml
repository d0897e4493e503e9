type transport = [ `Auto | `Local | `Decnet ]

type entry = {
  id : string;
  title : string;
  run : transport:transport -> quick:bool -> metrics:bool -> Report.Table.t list;
}

let all =
  [
    {
      id = "table1";
      title = "Time for 10000 RPCs (latency & throughput vs caller threads)";
      run =
        (fun ~transport ~quick ~metrics ->
          let calls = if quick then 400 else 10000 in
          [ Table1.table ~calls ~metrics ~transport () ]);
    };
    {
      id = "tables2-5";
      title = "Marshalling times (integers, arrays, Text.T)";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> Marshalling.tables ());
    };
    {
      id = "table6";
      title = "Latency of steps in the send+receive operation";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Breakdown.table6_table () ]);
    };
    {
      id = "table7";
      title = "Latency of stubs and RPC runtime";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Breakdown.table7_table () ]);
    };
    {
      id = "table8";
      title = "Calculated vs measured latency";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Breakdown.table8_table () ]);
    };
    {
      id = "table9";
      title = "Interrupt routine: Modula-2+ vs assembly";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Table9.table () ]);
    };
    {
      id = "table10";
      title = "Null() latency with fewer processors";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Processors.table10_table ~quick ]);
    };
    {
      id = "table11";
      title = "MaxResult(b) throughput with fewer processors";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Processors.table11_table ~quick ]);
    };
    {
      id = "table12";
      title = "Comparison with other systems";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Table12.table ~quick () ]);
    };
    {
      id = "improvements";
      title = "Section 4.2 improvement estimates, re-simulated";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Improvements.table () ]);
    };
    {
      id = "uniproc-bug";
      title = "Section 5: the uniprocessor lost-packet bug";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Section5.uniproc_bug_table ~quick ]);
    };
    {
      id = "streaming";
      title = "Section 5 extension: streamed bulk transfer";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Section5.streaming_table ~quick ]);
    };
    {
      id = "multi-client";
      title = "Extension: several client machines against one server";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Extensions.multi_client_table ~quick ]);
    };
    {
      id = "controller-saturation";
      title = "Extension: controller saturated tx vs rx rates (section 4.1 footnote)";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Extensions.controller_saturation_table () ]);
    };
    {
      id = "ablation-demux";
      title = "Ablation: interrupt-time demux vs traditional datalink thread (section 3.2)";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Ablation.table ~quick () ]);
    };
    {
      id = "latency-tails";
      title = "Extension: Null() latency distribution under load";
      run = (fun ~transport:_ ~quick ~metrics:_ -> [ Extensions.latency_tails_table ~quick ]);
    };
    {
      id = "transports";
      title = "Extension: the three bind-time transports, measured";
      run = (fun ~transport:_ ~quick:_ ~metrics:_ -> [ Extensions.transports_table () ]);
    };
  ]

let find id = List.find_opt (fun e -> String.equal e.id id) all
let ids () = List.map (fun e -> e.id) all
