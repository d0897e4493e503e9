(* socket-loopback: real UDP on 127.0.0.1 through
   [Realnet.Udp_socket] — one client and the server thread, the client
   alternating Null() and MaxArg(1440), so large arguments travel
   caller to server, in a full 1514-byte call frame.  The only workload that
   touches real syscalls; the simulator does no work in it.  A sample
   is a batch of 100 calls. *)

module U = Realnet.Udp_socket
module Ti = Workload.Test_interface
module Marshal = Rpc.Marshal

let batch = 100
let warmup_calls = 20
let arg = Ti.pattern Ti.buffer_bytes

(* Class 0 is Null(), class 1 MaxArg(1440); call i of a run is class
   [i land 1]. *)
let procs = [| (Ti.null_idx, []); (Ti.max_arg_idx, [ Marshal.V_bytes arg ]) |]

type live = { server : U.server; client : U.client }

let live = ref None
let frames_sent = ref []

let fail fmt = Printf.ksprintf (fun s -> failwith ("socket-loopback: " ^ s)) fmt

let ok = function Ok x -> x | Error e -> fail "%s" e

(* One call, checked: both procedures return no VAR OUT values, and the
   server's MaxArg implementation compares the argument with the test
   pattern byte for byte and answers with an error reply otherwise. *)
let call client cls =
  let proc_idx, args = procs.(cls) in
  match U.call client ~proc_idx ~args with
  | [] -> true
  | _ -> false
  | exception U.Call_failed _ -> false

let teardown () =
  match !live with
  | None -> ()
  | Some l ->
    live := None;
    U.close l.client;
    U.stop_server l.server

(* Start the server, connect, warm up.  A second client (activity 2)
   captures the exact frames of one call of each class — the digest of
   the run and the kernel arm's replay input. *)
let setup () =
  teardown ();
  if not (U.available ()) then fail "loopback UDP sockets are unavailable";
  let server = ok (U.start_server ~intf:Ti.interface ~impls:(Realnet.Crossval.test_impls ()) ()) in
  let port = U.server_port server in
  let client = ok (U.connect ~port ~intf:Ti.interface ()) in
  live := Some { server; client };
  for i = 1 to warmup_calls do
    if not (call client (i land 1)) then fail "warm-up call %d failed" i
  done;
  let captured = ref [] in
  let probe =
    ok
      (U.connect ~thread:2 ~port ~intf:Ti.interface
         ~capture:(fun ~dir:_ f -> captured := f :: !captured)
         ())
  in
  Fun.protect
    ~finally:(fun () -> U.close probe)
    (fun () ->
      if not (call probe 0 && call probe 1) then fail "capture calls failed");
  frames_sent := List.rev !captured

let sample ~traced:_ k =
  let l = match !live with Some l -> l | None -> fail "sample before set-up" in
  let rejected0 = U.server_rejected l.server in
  let t0 = Common.now () in
  let failed = ref 0 and lats = ref [] in
  for i = 0 to batch - 1 do
    let cls = (k + i) land 1 in
    let h0 = Common.now () in
    if not (call l.client cls) then incr failed;
    lats := (cls, (Common.now () -. h0) *. 1e6) :: !lats
  done;
  {
    Common.s_calls = batch;
    s_failed = !failed;
    s_wall = Common.now () -. t0;
    s_lat_us = !lats;
    s_events = 0;
    s_counts = [ ("server_rejected", float_of_int (U.server_rejected l.server - rejected0)) ];
    s_digest =
      Digest.to_hex (Digest.string (String.concat "" (List.map Bytes.to_string !frames_sent)));
    s_spans = Lazy.from_val [];
  }

let shape (proc_idx, args) =
  { Arms.proc = Ti.interface.Rpc.Idl.procs.(proc_idx); call_args = args; result_args = args }

let create ~seed:_ =
  {
    Harness.classes = [| "null"; "maxarg" |];
    setup;
    sample;
    kernel_input =
      (fun () ->
        { Arms.frames = !frames_sent; frame_calls = 2; shapes = Array.to_list (Array.map shape procs) });
    teardown;
  }
