(* The intrusive event queue must pop in exactly (time, tie, seq) order
   — the engine's determinism contract — including under interleaved
   add/pop and heavy node recycling. *)

module Q = Sim.Eventq

let time_of_ns n = Sim.Time.add Sim.Time.zero (Sim.Time.ns n)

let key_compare (t1, tie1, seq1) (t2, tie2, seq2) =
  match Sim.Time.compare t1 t2 with
  | 0 -> ( match compare tie1 tie2 with 0 -> compare seq1 seq2 | c -> c)
  | c -> c

let drain q =
  while not (Q.is_empty q) do
    (Q.pop_run q) ()
  done

let add_recording q out ~time_ns ~tie ~seq =
  Q.add q ~time:(time_of_ns time_ns) ~tie ~seq (fun () ->
      out := (time_ns, tie, seq) :: !out)

let test_sorted_drain () =
  let q = Q.create () in
  let out = ref [] in
  let keys =
    [
      (50, 0, 3); (10, 0, 1); (50, 0, 2); (10, 1, 0); (10, 0, 4); (0, 5, 5);
      (50, 2, 6); (0, 5, 7);
    ]
  in
  List.iter (fun (t, tie, seq) -> add_recording q out ~time_ns:t ~tie ~seq) keys;
  Alcotest.(check int) "size" (List.length keys) (Q.size q);
  drain q;
  let expect =
    List.sort
      (fun (t1, x1, s1) (t2, x2, s2) ->
        key_compare (time_of_ns t1, x1, s1) (time_of_ns t2, x2, s2))
      keys
  in
  Alcotest.(check (list (triple int int int))) "pops in (time, tie, seq) order"
    expect (List.rev !out)

let test_min_time_tracks () =
  let q = Q.create () in
  let out = ref [] in
  add_recording q out ~time_ns:30 ~tie:0 ~seq:0;
  add_recording q out ~time_ns:10 ~tie:0 ~seq:1;
  Alcotest.(check int) "min after adds" 10
    (Sim.Time.since_start_ns (Q.min_time q));
  (Q.pop_run q) ();
  Alcotest.(check int) "min after pop" 30
    (Sim.Time.since_start_ns (Q.min_time q));
  (Q.pop_run q) ();
  Alcotest.(check bool) "empty" true (Q.is_empty q)

let test_pop_empty_rejected () =
  let q = Q.create () in
  Alcotest.(check bool) "pop on empty raises" true
    (try
       ignore (Q.pop_run q : unit -> unit);
       false
     with Invalid_argument _ -> true)

let test_foreign_node_rejected () =
  (* The queue pops nodes by their id in its own pool. *)
  let q = Q.create () in
  let stranger = Sim.Evnode.alloc (Sim.Evnode.create_pool ()) ~time:Sim.Time.zero ~tie:0 ~seq:0 in
  List.iter
    (fun (name, insert) ->
      Alcotest.(check bool) (name ^ " from another pool raises") true
        (try
           insert q stranger;
           false
         with Invalid_argument _ -> true))
    [ ("insert", Q.insert); ("insert_timer", Q.insert_timer) ];
  Alcotest.(check bool) "nothing queued" true (Q.is_empty q)

let test_reschedule_from_closure () =
  (* The popped closure re-adds events — the recycled-node path the
     engine exercises on every self-rescheduling chain. *)
  let q = Q.create () in
  let seq = ref 0 in
  let popped = ref [] in
  let rec chain remaining time_ns () =
    popped := time_ns :: !popped;
    if remaining > 0 then begin
      incr seq;
      Q.add q ~time:(time_of_ns (time_ns + 7)) ~tie:0 ~seq:!seq
        (chain (remaining - 1) (time_ns + 7))
    end
  in
  Q.add q ~time:(time_of_ns 0) ~tie:0 ~seq:0 (chain 100 0);
  while not (Q.is_empty q) do
    (Q.pop_run q) ()
  done;
  Alcotest.(check int) "all links ran" 101 (List.length !popped);
  Alcotest.(check (list int)) "monotone times"
    (List.init 101 (fun i -> i * 7))
    (List.rev !popped)

(* Filing nodes by hand, as the engine does: [file pool q insert ns tie]
   queues a node due [ns] ns after the start with the next seq and
   returns its key. *)
let seq = ref 0

let file pool q insert ns tie =
  incr seq;
  insert q (Sim.Evnode.alloc pool ~time:(time_of_ns ns) ~tie ~seq:!seq);
  (ns, tie, !seq)

let pop_key pool q =
  let n = Q.pop q in
  let key = (Sim.Time.since_start_ns n.Sim.Evnode.time, n.Sim.Evnode.tie, n.Sim.Evnode.seq) in
  Sim.Evnode.recycle pool n;
  key

let sorted keys = List.sort compare keys

(* Far keys and timeouts that arrive in order extend their sorted runs,
   whose rings start at 64 positions.  Pops move each run's head on,
   so later appends wrap around the ring, and both rings fill and
   double while wrapped.  Far keys and timeouts alternate in time, so
   pops take from both runs. *)
let test_run_grows_wrapped () =
  let pool = Sim.Evnode.create_pool () in
  let q = Q.create ~pool () in
  let file = file pool q and pop_key () = pop_key pool q in
  let next = ref 0 in
  let append k =
    List.concat
      (List.init k (fun _ ->
           let i = !next in
           incr next;
           [
             file Q.insert (1_000_000_000 + (2_000_000 * i)) 0;
             file Q.insert_timer (1_001_000_000 + (2_000_000 * i)) 0;
           ]))
  in
  let first = append 48 in
  let popped = List.init 80 (fun _ -> pop_key ()) in
  Alcotest.(check (list (triple int int int))) "first pops in order"
    (List.filteri (fun i _ -> i < 80) (sorted first))
    popped;
  let rest = append 100 in
  Alcotest.(check int) "size" 216 (Q.size q);
  let drained = List.init 216 (fun _ -> pop_key ()) in
  Alcotest.(check (list (triple int int int))) "wrapped and grown runs pop in order"
    (sorted (first @ rest))
    (popped @ drained);
  Alcotest.(check bool) "empty" true (Q.is_empty q)

(* A far key or a timeout that orders before its run's last key goes
   to the heap behind the run, whether it is earlier in time or ties in
   time with a smaller tie.  Every head still takes its turn: before
   each pop, [all_after] holds just before the minimum and fails at
   it. *)
let test_out_of_order_keys () =
  let pool = Sim.Evnode.create_pool () in
  let q = Q.create ~pool () in
  let file = file pool q in
  let ms n = n * 1_000_000 in
  let keys =
    [
      file Q.insert (ms 2000) 0;
      file Q.insert (ms 3000) 5;
      file Q.insert (ms 2500) 0 (* earlier than the far run's last *);
      file Q.insert (ms 3000) 2 (* same instant, smaller tie *);
      file Q.insert (ms 3000) 9;
      file Q.insert (ms 1000) 0;
      file Q.insert_timer (ms 600) 0;
      file Q.insert_timer (ms 900) 1;
      file Q.insert_timer (ms 700) 0 (* earlier than the timer run's last *);
      file Q.insert_timer (ms 900) 0 (* same instant, smaller tie *);
      file Q.insert_timer (ms 1000) 0 (* ties a far key in time *);
      file Q.insert 10_000 0;
      file Q.insert 50_000 3;
    ]
  in
  let probes_ok = ref true in
  let popped =
    List.map
      (fun _ ->
        let t = Sim.Time.since_start_ns (Q.min_time q) in
        probes_ok :=
          !probes_ok
          && Q.all_after q (time_of_ns (t - 1))
          && not (Q.all_after q (time_of_ns t));
        pop_key pool q)
      keys
  in
  Alcotest.(check (list (triple int int int))) "pops in key order" (sorted keys) popped;
  Alcotest.(check bool) "all_after brackets each minimum" true !probes_ok;
  Alcotest.(check bool) "all_after on empty" true (Q.all_after q Sim.Time.zero)

(* Model-based property: interleaved adds and pops against a sorted-list
   model.  Commands: [Some (time, tie)] = add (seq assigned in program
   order, so keys are unique), [None] = pop.  Times cluster within 20 ns
   of 0, of a few ms and of 5 s, so as pops move forward the same
   instant is queued both far ahead of the last pop and near it: keys
   land in the near heap, the far run and the far heap, and tie across
   them.  Before each pop, [all_after] must hold just before the
   model's minimum and fail at it. *)
let prop_model =
  let time =
    QCheck.Gen.(
      map2 ( + ) (oneofl [ 0; 1_000_000; 3_000_000; 5_000_000_000 ]) (int_bound 20))
  in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 200)
        (oneof
           [ map (fun (t, tie) -> Some (t, tie)) (pair time (int_bound 3)); return None ]))
  in
  let print cmds =
    String.concat "; "
      (List.map
         (function
           | Some (t, tie) -> Printf.sprintf "add(%d,%d)" t tie
           | None -> "pop")
         cmds)
  in
  QCheck.Test.make ~name:"eventq matches sorted-list model" ~count:300
    (QCheck.make ~print gen) (fun cmds ->
      let q = Q.create () in
      let model = ref [] in
      let seq = ref 0 in
      let popped = ref None in
      List.for_all
        (fun cmd ->
          match cmd with
          | Some (t, tie) ->
            let key = (time_of_ns t, tie, !seq) in
            incr seq;
            let time, tie, s = key in
            Q.add q ~time ~tie ~seq:s (fun () -> popped := Some key);
            model := List.sort key_compare (key :: !model);
            Q.size q = List.length !model
          | None -> (
            match (Q.is_empty q, !model) with
            | true, [] -> true
            | true, _ :: _ | false, [] -> false
            | false, expect :: rest ->
              model := rest;
              let t, _, _ = expect in
              let min_ok =
                Sim.Time.equal (Q.min_time q) t
                && Q.all_after q (Sim.Time.add t (Sim.Time.ns (-1)))
                && not (Q.all_after q t)
              in
              popped := None;
              (Q.pop_run q) ();
              min_ok && !popped = Some expect))
        cmds
      && (drain q;
          true))

let suite =
  [
    Alcotest.test_case "sorted drain with ties" `Quick test_sorted_drain;
    Alcotest.test_case "min_time tracks the head" `Quick test_min_time_tracks;
    Alcotest.test_case "pop on empty rejected" `Quick test_pop_empty_rejected;
    Alcotest.test_case "insert of a foreign node rejected" `Quick test_foreign_node_rejected;
    Alcotest.test_case "reschedule from popped closure" `Quick test_reschedule_from_closure;
    Alcotest.test_case "a run grows while wrapped" `Quick test_run_grows_wrapped;
    Alcotest.test_case "out-of-order far keys and timeouts" `Quick test_out_of_order_keys;
    QCheck_alcotest.to_alcotest prop_model;
  ]
