(* Tests for the domain pool. *)

let range n = List.init n (fun i -> i)

let test_map_list_order () =
  (* Results must come back in input order no matter how many domains
     service the queue. *)
  let tasks = range 100 in
  let expect = List.map (fun i -> i * i) tasks in
  List.iter
    (fun jobs ->
      let got = Par.Pool.map_list ~jobs (fun i -> i * i) tasks in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expect got)
    [ 1; 2; 4; 7 ]

let test_jobs_one_is_serial_map () =
  (* jobs=1 is documented as a plain List.map: side effects happen in
     input order on the calling domain. *)
  let log = ref [] in
  let got =
    Par.Pool.map_list ~jobs:1
      (fun i ->
        log := i :: !log;
        i + 1)
      (range 10)
  in
  Alcotest.(check (list int)) "results" (List.map succ (range 10)) got;
  Alcotest.(check (list int)) "evaluation order" (range 10) (List.rev !log)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" []
    (Par.Pool.map_list ~jobs:8 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Par.Pool.map_list ~jobs:8 (fun i -> i) [ 7 ])

let test_more_jobs_than_tasks () =
  let got = Par.Pool.map_list ~jobs:16 (fun i -> i * 2) (range 3) in
  Alcotest.(check (list int)) "jobs > tasks" [ 0; 2; 4 ] got

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Par.Pool.map_list: jobs must be >= 1") (fun () ->
      ignore (Par.Pool.map_list ~jobs:0 (fun i -> i) [ 1 ]))

exception Boom of int

let test_first_failure_wins () =
  (* Several tasks fail; the exception of the lowest-indexed failing
     task must be the one re-raised, deterministically. *)
  List.iter
    (fun jobs ->
      match
        Par.Pool.map_list ~jobs
          (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
          (range 20)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "jobs=%d lowest failing index" jobs)
          2 i)
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "map_list preserves input order" `Quick test_map_list_order;
    Alcotest.test_case "jobs=1 is a serial List.map" `Quick test_jobs_one_is_serial_map;
    Alcotest.test_case "empty and singleton inputs" `Quick test_empty_and_singleton;
    Alcotest.test_case "more jobs than tasks" `Quick test_more_jobs_than_tasks;
    Alcotest.test_case "jobs < 1 rejected" `Quick test_invalid_jobs;
    Alcotest.test_case "lowest-index failure re-raised" `Quick test_first_failure_wins;
  ]

let () = Alcotest.run "par" [ ("pool", suite) ]
