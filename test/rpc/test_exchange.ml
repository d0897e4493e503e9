(* The packet-exchange core on its own — no simulated world, no socket.
   Unit tests pin the caller's retransmission schedule and the server's
   duplicate classification; a property connects a caller core to a
   server core through an in-memory channel under a virtual clock and
   lets a seeded schedule drop, duplicate and reorder frames. *)

module Ex = Rpc.Exchange
module Proto = Rpc.Proto
module Time = Sim.Time
module V = Wire.Bytebuf.View

let act thread =
  { Proto.Activity.caller_ip = Net.Ipv4.Addr.of_string "16.0.0.1"; caller_space = 1; thread }

let max_payload = 1440
let opts ?backoff ~retries ms = { Ex.retransmit_after = Time.ms ms; max_retries = retries; backoff }

let start ?(thread = 1) ?(seq = 1) o payload =
  Ex.Caller.start o ~max_payload ~peer:() ~activity:(act thread) ~seq ~server_space:1
    ~interface_id:7l ~proc_idx:0 ~secured:false payload

(* A frame as the server would send it: the call's identity with the
   packet type and fragment place stamped in. *)
let reply_frame ?(thread = 1) ?(seq = 1) ?(payload = V.empty) ptype ~frag_idx ~frag_count =
  {
    Ex.hdr =
      {
        Proto.ptype;
        please_ack = false;
        no_frag_ack = false;
        secured = false;
        activity = act thread;
        seq;
        server_space = 1;
        interface_id = 7l;
        proc_idx = 0;
        frag_idx;
        frag_count;
        data_len = 0;
        checksum = 0;
      };
    payload;
  }

let arms outs = List.filter_map (function Ex.Arm s -> Some (Time.to_ns s) | _ -> None) outs

let sent outs =
  List.filter_map (function Ex.Send ((), f) -> Some f.Ex.hdr | _ -> None) outs

let gave_up outs = List.exists (function Ex.Give_up _ -> true | _ -> false) outs

(* {1 The caller's schedule} *)

let test_irrelevant_frames_do_not_postpone () =
  let c, outs = start (opts ~retries:3 100) (Bytes.make 3000 'x') in
  Alcotest.(check (list int)) "start arms the first interval" [ 100_000_000 ] (arms outs);
  (* Fragment 0 is in flight.  None of these is progress, so none may
     re-arm the deadline: a peer spamming them must not suppress our
     retransmission. *)
  List.iter
    (fun f -> Alcotest.(check int) "no output" 0 (List.length (Ex.Caller.input c f)))
    [
      reply_frame Proto.Ack ~frag_idx:1 ~frag_count:3 (* not the fragment in flight *);
      reply_frame ~seq:2 Proto.Busy ~frag_idx:0 ~frag_count:1 (* another call *);
      reply_frame ~thread:9 Proto.Busy ~frag_idx:0 ~frag_count:1 (* another activity *);
      reply_frame Proto.Result ~frag_idx:0 ~frag_count:1 (* no result before the call is in *);
      reply_frame Proto.Call ~frag_idx:0 ~frag_count:3;
    ];
  let outs = Ex.Caller.expire c in
  match sent outs with
  | [ h ] ->
    Alcotest.(check bool) "retransmits fragment 0 asking for an ack" true
      (h.Proto.frag_idx = 0 && h.Proto.please_ack && h.Proto.ptype = Proto.Call)
  | _ -> Alcotest.fail "expected exactly one retransmission"

(* [retries] silent periods are survived, one more is not. *)
let exhaust c retries =
  for i = 1 to retries do
    if gave_up (Ex.Caller.expire c) then Alcotest.failf "gave up after %d silent periods" i
  done;
  Alcotest.(check bool) "gives up one period later" true (gave_up (Ex.Caller.expire c))

let test_progress_resets_deadline_and_retries () =
  let backoff = { Ex.multiplier = 2.; max_interval = Time.ms 1000 } in
  let o = opts ~backoff ~retries:2 100 in
  let progress_cases =
    [
      ("ack of the fragment in flight", Bytes.make 3000 'x', reply_frame Proto.Ack ~frag_idx:0 ~frag_count:3);
      ("busy", Bytes.empty, reply_frame Proto.Busy ~frag_idx:0 ~frag_count:1);
      ( "result fragment",
        Bytes.empty,
        reply_frame Proto.Result ~payload:(V.of_bytes (Bytes.make 1440 'r')) ~frag_idx:0
          ~frag_count:2 );
    ]
  in
  List.iter
    (fun (what, payload, frame) ->
      let c, _ = start o payload in
      Alcotest.(check (list int)) (what ^ ": backoff grows") [ 200_000_000 ]
        (arms (Ex.Caller.expire c));
      Alcotest.(check (list int)) (what ^ ": and grows") [ 400_000_000 ]
        (arms (Ex.Caller.expire c));
      Alcotest.(check (list int)) (what ^ ": resets the interval") [ 100_000_000 ]
        (arms (Ex.Caller.input c frame));
      exhaust c 2)
    progress_cases

let test_result_fragments_acked_and_delivered () =
  let c, _ = start (opts ~retries:3 100) Bytes.empty in
  let part i = V.of_bytes (Bytes.make (if i < 2 then 1440 else 10) (Char.chr (65 + i))) in
  let frame i = reply_frame Proto.Result ~payload:(part i) ~frag_idx:i ~frag_count:3 in
  let acked outs = List.map (fun h -> (h.Proto.ptype, h.Proto.frag_idx)) (sent outs) in
  Alcotest.(check bool) "fragment 1 acknowledged" true
    (acked (Ex.Caller.input c (frame 1)) = [ (Proto.Ack, 1) ]);
  Alcotest.(check bool) "a poisoned count is dropped" true
    (Ex.Caller.input c (reply_frame Proto.Result ~frag_idx:1 ~frag_count:5) = []);
  Alcotest.(check bool) "fragment 0 acknowledged" true
    (acked (Ex.Caller.input c (frame 0)) = [ (Proto.Ack, 0) ]);
  match Ex.Caller.input c (frame 2) with
  | [ Ex.Deliver { payload; secured = false } ] ->
    Alcotest.(check int) "reassembled length" 2890 (V.length payload);
    Alcotest.(check string) "fragments in order" "AAB" (V.to_string (V.sub payload ~pos:1438 ~len:3))
  | _ -> Alcotest.fail "the last fragment must deliver, unacknowledged"

(* {1 The server's duplicate classification} *)

let call_frame ?(please_ack = false) ?(payload = V.empty) ~seq ~frag_idx ~frag_count () =
  let f = reply_frame ~seq ~payload Proto.Call ~frag_idx ~frag_count in
  { f with Ex.hdr = { f.Ex.hdr with Proto.please_ack } }

let test_server_classification () =
  let srv = Ex.Server.create (opts ~retries:2 100) ~max_payload ~streaming:false in
  let call ?please_ack ~seq ?(frag_idx = 0) ?(frag_count = 1) () =
    Ex.Server.call srv ~from:() (call_frame ?please_ack ~seq ~frag_idx ~frag_count ())
  in
  let tr, outs = call ~seq:1 () in
  let tr = Option.get tr in
  Alcotest.(check bool) "a one-fragment call executes at once" true
    (match outs with [ Ex.Execute _ ] -> true | _ -> false);
  let busy ~please_ack = snd (call ~please_ack ~seq:1 ()) in
  Alcotest.(check int) "duplicate while executing: Busy noted, nothing sent" 0
    (List.length (sent (busy ~please_ack:false)));
  Alcotest.(check bool) "with please_ack the Busy goes out" true
    (List.map (fun h -> h.Proto.ptype) (sent (busy ~please_ack:true)) = [ Proto.Busy ]);
  let outs = Ex.Server.reply tr (Ok (Bytes.make 3000 'r', false)) in
  Alcotest.(check int) "stop-and-wait: one frame out" 1 (List.length (sent outs));
  (* Nobody acknowledges: the transfer is abandoned — and retained. *)
  ignore (Ex.Server.expire tr);
  ignore (Ex.Server.expire tr);
  Alcotest.(check bool) "abandoned after max_retries" true
    (Ex.Server.expire tr = [ Ex.Retain ]);
  let _, outs = call ~please_ack:true ~seq:1 () in
  Alcotest.(check (list int)) "its retransmission receives every retained fragment" [ 0; 1; 2 ]
    (List.map (fun h -> h.Proto.frag_idx) (sent outs));
  Alcotest.(check bool) "a stray later fragment of a new call is dropped" true
    (call ~seq:2 ~frag_idx:1 ~frag_count:2 () = (None, []));
  let tr2, outs = call ~seq:2 ~frag_count:2 () in
  Alcotest.(check bool) "a new call releases the retained result" true
    (Option.is_some tr2 && List.mem (Ex.Note (Ex.Released 3)) outs);
  Alcotest.(check bool) "an older sequence number is dropped" true (call ~seq:1 () = (None, []))

let test_superseded_call_not_rerun () =
  (* Call 1 executes; its caller gives up and starts call 2 before call 1
     is answered.  A late copy of call 1 must not run it again — it is
     older than the call in progress, so its caller has moved on. *)
  let srv = Ex.Server.create (opts ~retries:2 100) ~max_payload ~streaming:false in
  let call seq = Ex.Server.call srv ~from:() (call_frame ~seq ~frag_idx:0 ~frag_count:1 ()) in
  let executes (_, outs) = List.exists (function Ex.Execute _ -> true | _ -> false) outs in
  let first = call 1 in
  Alcotest.(check bool) "call 1 executes" true (executes first);
  Alcotest.(check bool) "call 2 executes" true (executes (call 2));
  Alcotest.(check bool) "call 1's reply is superseded" true
    (match Ex.Server.reply (Option.get (fst first)) (Ok (Bytes.empty, false)) with
    | [ Ex.Give_up _ ] -> true
    | _ -> false);
  Alcotest.(check bool) "a late copy of call 1 is dropped" false (executes (call 1))

(* {1 Caller core <-> server core over a lossy in-memory channel} *)

let tmg = Hw.Timing.create Hw.Config.default
let ep station = { Rpc.Frames.mac = Net.Mac.of_station station; ip = Net.Ipv4.Addr.of_string "16.0.0.1" }

(* What the server answers: the call payload reversed, plus a tail, so
   results fragment differently from calls. *)
let answer call =
  let n = Bytes.length call in
  Bytes.init (n + 700) (fun i -> if i < n then Bytes.get call (n - 1 - i) else '!')

type outcome = Delivered of Bytes.t | Failed

(* Frames cross the channel as real byte images ([Frames.build] out,
   [Frames.parse] in).  Before [fault_until] each copy is dropped,
   duplicated or delayed by up to [jitter] ms (so frames overtake each
   other) by the seeded schedule; after it, every frame arrives 1 ms
   later, in order.  Returns the calls' outcomes, the executions per
   sequence number, and what each execution saw. *)
let exchange_run ~seed ~drop ~dup ~jitter ~calls =
  let rng = Random.State.make [| seed |] in
  let fault_until = 3_000 in
  let now = ref 0 (* ms *) and queue = ref [] and ordinal = ref 0 in
  let transmit ~to_server (f : Ex.frame) =
    let v = f.Ex.payload in
    let src, dst = if to_server then (ep 1, ep 2) else (ep 2, ep 1) in
    let bytes =
      Rpc.Frames.build tmg ~src ~dst ~hdr:f.Ex.hdr ~payload:(V.buffer v) ~payload_pos:(V.offset v)
        ~payload_len:(V.length v)
    in
    let faulty = !now < fault_until in
    let copies =
      if faulty && Random.State.int rng 100 < drop then 0
      else if faulty && Random.State.int rng 100 < dup then 2
      else 1
    in
    for _ = 1 to copies do
      let at = !now + if faulty then 1 + Random.State.int rng jitter else 1 in
      incr ordinal;
      queue := List.merge compare !queue [ (at, !ordinal, to_server, bytes) ]
    done
  in
  let ms span = Time.to_ns span / 1_000_000 in
  let srv = Ex.Server.create (opts ~retries:5 40) ~max_payload ~streaming:false in
  let timers = ref [] (* server transfers waiting, with deadlines *) in
  let executions = Hashtbl.create 8 and executed = Hashtbl.create 8 in
  let rec serve tr = function
    | [] -> ()
    | Ex.Send ((), f) :: rest ->
      transmit ~to_server:false f;
      serve tr rest
    | Ex.Arm span :: rest ->
      Option.iter (fun t -> timers := (t, !now + ms span) :: List.remove_assq t !timers) tr;
      serve tr rest
    | Ex.Note _ :: rest -> serve tr rest
    | last :: _ -> (
      Option.iter (fun t -> timers := List.remove_assq t !timers) tr;
      match (last, tr) with
      | Ex.Execute { Ex.hdr; payload }, Some t ->
        let seq = hdr.Proto.seq in
        Hashtbl.replace executions seq (1 + Option.value ~default:0 (Hashtbl.find_opt executions seq));
        Hashtbl.replace executed seq (V.to_bytes payload);
        serve tr (Ex.Server.reply t (Ok (answer (V.to_bytes payload), false)))
      | _ -> ())
  in
  let call ~retries seq payload =
    let c, outs = start (opts ~retries 50) ~seq payload in
    let deadline = ref 0 and outcome = ref None in
    let rec run = function
      | [] -> ()
      | Ex.Send ((), f) :: rest ->
        transmit ~to_server:true f;
        run rest
      | Ex.Arm span :: rest ->
        deadline := !now + ms span;
        run rest
      | Ex.Note _ :: rest -> run rest
      | Ex.Deliver { payload; _ } :: _ -> outcome := Some (Delivered (V.to_bytes payload))
      | (Ex.Give_up _ | Ex.Execute _ | Ex.Retain) :: _ -> outcome := Some Failed
    in
    run outs;
    let steps = ref 0 in
    while !outcome = None do
      incr steps;
      if !steps > 1_000_000 then Alcotest.fail "the exchange livelocked";
      let next_timer = List.fold_left (fun acc (_, d) -> min acc d) max_int !timers in
      let next_frame = match !queue with (at, _, _, _) :: _ -> at | [] -> max_int in
      if !deadline <= next_frame && !deadline <= next_timer then begin
        now := max !now !deadline;
        run (Ex.Caller.expire c)
      end
      else if next_frame <= next_timer then begin
        let _, _, to_server, bytes = List.hd !queue in
        queue := List.tl !queue;
        now := max !now next_frame;
        match Rpc.Frames.parse tmg bytes with
        | Error e -> Alcotest.failf "a built frame failed to parse: %s" e
        | Ok p ->
          let f = { Ex.hdr = p.Rpc.Frames.p_hdr; payload = p.Rpc.Frames.p_payload } in
          if to_server then
            let tr, outs = Ex.Server.receive srv ~from:() f in
            serve tr outs
          else run (Ex.Caller.input c f)
      end
      else begin
        let tr, _ = List.find (fun (_, d) -> d = next_timer) !timers in
        timers := List.remove_assq tr !timers;
        now := max !now next_timer;
        serve (Some tr) (Ex.Server.expire tr)
      end
    done;
    Option.get !outcome
  in
  let sizes = List.init calls (fun _ -> Random.State.int rng 5000) in
  let outcomes = List.mapi (fun i n -> (i + 1, Bytes.init n (fun j -> Char.chr ((j * 31 + i) land 0xff)))) sizes in
  (* A short retry budget under faults, so callers give up and their
     stale frames chase the next call. *)
  let results = List.map (fun (seq, payload) -> (seq, payload, call ~retries:3 seq payload)) outcomes in
  (* The last call starts once the faults have stopped. *)
  now := max !now fault_until;
  let final = calls + 1 in
  let payload = Bytes.make 4000 'z' in
  let results = results @ [ (final, payload, call ~retries:30 final payload) ] in
  (results, executions, executed)

let prop_exchange_under_faults =
  QCheck.Test.make ~name:"caller and server cores over a lossy channel" ~count:200
    QCheck.(quad (int_bound 1_000_000) (int_bound 30) (int_bound 30) (int_range 1 120))
    (fun (seed, drop, dup, jitter) ->
      let results, executions, executed = exchange_run ~seed ~drop ~dup ~jitter ~calls:5 in
      Hashtbl.iter
        (fun seq n -> if n > 1 then QCheck.Test.fail_reportf "seq %d executed %d times" seq n)
        executions;
      List.iter
        (fun (seq, payload, outcome) ->
          match outcome with
          | Failed -> ()
          | Delivered r -> (
            match Hashtbl.find_opt executed seq with
            | None -> QCheck.Test.fail_reportf "seq %d returned a result it never executed" seq
            | Some seen ->
              if not (Bytes.equal seen payload) then
                QCheck.Test.fail_reportf "seq %d executed a corrupted call" seq;
              if not (Bytes.equal r (answer seen)) then
                QCheck.Test.fail_reportf "seq %d returned a result other than the executed one" seq))
        results;
      match List.rev results with
      | (_, _, Delivered _) :: _ -> true
      | _ -> QCheck.Test.fail_reportf "the call issued after the faults stopped did not complete")

let suite =
  [
    Alcotest.test_case "irrelevant frames do not postpone a retransmission" `Quick
      test_irrelevant_frames_do_not_postpone;
    Alcotest.test_case "ack, Busy and result fragment reset deadline and retries" `Quick
      test_progress_resets_deadline_and_retries;
    Alcotest.test_case "result fragments acknowledged, reassembled, delivered" `Quick
      test_result_fragments_acked_and_delivered;
    Alcotest.test_case "server duplicate classification and abandoned retention" `Quick
      test_server_classification;
    Alcotest.test_case "a superseded call is never run again" `Quick test_superseded_call_not_rerun;
    QCheck_alcotest.to_alcotest prop_exchange_under_faults;
  ]
