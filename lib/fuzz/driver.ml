module Rng = Sim.Rng

(* The fuzz loop.  Two phases, both pure functions of the seed:

   - a systematic sweep first: every prefix of every corpus entry, so
     "truncation at every offset" is exhaustive rather than sampled;
   - then stacked random mutations of random corpus entries for the
     rest of the iteration budget.

   The first failure of each (stage, property) class is shrunk with
   {!Check.Shrinker.minimize_bytes} and kept as a minimized reproducer;
   later instances of the same class are counted but not stored. *)

type failure_report = {
  f_stage : string;
  f_tag : string;
  f_message : string;
  f_original_len : int;
  f_input : Bytes.t;  (** minimized *)
  f_count : int;  (** inputs that hit this (stage, property) class *)
}

type report = {
  r_seed : int;
  r_iters : int;
  r_corpus_size : int;
  r_executed : int;
  r_full_stack_ok : int;
  r_failures : failure_report list;
}

let run ?(sweep = true) ~seed ~iters () =
  let corpus = Corpus.generate ~seed in
  let corpus_arr = Array.of_list corpus in
  let rng = Rng.create ~seed in
  let reasm = Oracle.reassembly () in
  let executed = ref 0 and accepted = ref 0 in
  let failures : (string, failure_report ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let execute input =
    incr executed;
    let o = Oracle.run ~reasm input in
    if o.Oracle.full_stack_ok then incr accepted;
    match o.Oracle.failure with
    | None -> ()
    | Some f -> (
      let key = Oracle.key f in
      match Hashtbl.find_opt failures key with
      | Some r -> r := { !r with f_count = !r.f_count + 1 }
      | None ->
        let still_fails b =
          match (Oracle.run b).Oracle.failure with
          | Some f' -> String.equal (Oracle.key f') key
          | None -> false
        in
        (* Reassembly failures depend on fragment state built by earlier
           inputs, so a lone input may not reproduce — keep it unshrunk
           then. *)
        let minimized =
          if still_fails input then Check.Shrinker.minimize_bytes ~still_fails input else input
        in
        let r =
          ref
            {
              f_stage = f.Oracle.stage;
              f_tag = Oracle.kind_tag f.Oracle.kind;
              f_message = Oracle.kind_message f.Oracle.kind;
              f_original_len = Bytes.length input;
              f_input = minimized;
              f_count = 1;
            }
        in
        Hashtbl.add failures key r;
        order := r :: !order)
  in
  (* Sweep shortest entries first and leave at least half the budget to
     the random phase: under a small budget every input class still
     gets both exhaustive truncation and mutation coverage. *)
  let sweep_budget = iters / 2 in
  if sweep then
    List.iter
      (fun entry ->
        for k = 0 to Bytes.length entry - 1 do
          if !executed < sweep_budget then execute (Bytes.sub entry 0 k)
        done)
      (List.stable_sort (fun a b -> compare (Bytes.length a) (Bytes.length b)) corpus);
  while !executed < iters do
    let base = corpus_arr.(Rng.int rng (Array.length corpus_arr)) in
    let input = ref base in
    for _ = 1 to 1 + Rng.int rng 3 do
      input := Mutate.apply rng ~corpus:corpus_arr !input
    done;
    execute !input
  done;
  {
    r_seed = seed;
    r_iters = iters;
    r_corpus_size = Array.length corpus_arr;
    r_executed = !executed;
    r_full_stack_ok = !accepted;
    r_failures = List.rev_map (fun r -> !r) !order;
  }

(* {1 The canary self-test} *)

let canary ~seed ~iters () =
  Net.Udp.canary_skip_length_check := true;
  Fun.protect ~finally:(fun () -> Net.Udp.canary_skip_length_check := false) @@ fun () ->
  let r = run ~seed ~iters () in
  let found = List.exists (fun f -> String.equal f.f_tag "exception") r.r_failures in
  (found, r)

(* {1 Reproducer persistence and replay} *)

let sanitize s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c else '-') s

let failure_filename ~seed i f =
  Printf.sprintf "repro-seed%d-%02d-%s-%s.bin" seed i (sanitize f.f_stage) (sanitize f.f_tag)

let write_failures ~dir report =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.mapi
    (fun i f ->
      let path = Filename.concat dir (failure_filename ~seed:report.r_seed i f) in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc f.f_input);
      path)
    report.r_failures

let replay_file path =
  let input = In_channel.with_open_bin path In_channel.input_all in
  (Oracle.run (Bytes.of_string input)).Oracle.failure

let replay_dir ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".bin")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, replay_file path))

(* {1 Rendering} *)

let to_string r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "wire fuzz: seed=%d iters=%d corpus=%d entries\n" r.r_seed r.r_iters
    r.r_corpus_size;
  Printf.bprintf b "executed %d inputs: %d accepted by some full-stack regime, %d rejected\n"
    r.r_executed r.r_full_stack_ok
    (r.r_executed - r.r_full_stack_ok);
  (match r.r_failures with
  | [] -> Buffer.add_string b "no property violations: every decoder stayed total.\n"
  | fs ->
    Printf.bprintf b "%d distinct failure mode(s):\n" (List.length fs);
    List.iter
      (fun f ->
        Printf.bprintf b "\n[%s] %s (%d input(s) hit this class): %s\n" f.f_stage f.f_tag
          f.f_count f.f_message;
        Printf.bprintf b "minimized reproducer, %d bytes (from %d):\n%s" (Bytes.length f.f_input)
          f.f_original_len
          (Wire.Hexdump.to_string f.f_input))
      fs);
  Buffer.contents b
