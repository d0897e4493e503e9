(* Cross-validation: the calibrated simulator next to a real kernel.

   Every row times a piece of the production code path in real
   wall-clock time on this host — the same [Marshal] encoders, the same
   [Wire.Checksum], the same [Frames.build]/[Frames.parse], and whole
   RPCs over the loopback socket backend — and prints the simulator's
   calibrated MicroVAX II constant beside it.  The point is not that
   the numbers match (this host is three to four orders of magnitude
   faster than 1987 hardware); it is that the *same work* runs in both
   worlds: identical wire bytes, identical validation, so the
   calibrated constants attach to code that demonstrably performs the
   operation they price. *)

module Marshal = Rpc.Marshal
module Idl = Rpc.Idl
module Ti = Workload.Test_interface
module Driver = Workload.Driver

let test_impls = Ti.procedures

let wall () = Unix.gettimeofday ()

let time_us ~iters f =
  let t0 = wall () in
  for _ = 1 to iters do
    f ()
  done;
  (wall () -. t0) /. float_of_int iters *. 1e6

let cell us = Report.Table.cell_f ~decimals:1 us

let speedup ~calibrated ~measured =
  if measured <= 0. || calibrated <= 0. then "-"
  else Printf.sprintf "%.0fx" (calibrated /. measured)

let row label ~measured ~calibrated =
  [ label; cell measured; cell calibrated; speedup ~calibrated ~measured ]

let table ?(calls = 200) ~sim_null_us ~sim_maxarg_us () =
  if not (Udp_socket.available ()) then
    Error "loopback UDP sockets unavailable in this environment"
  else begin
    let intf = Ti.interface in
    match Udp_socket.start_server ~intf ~impls:(test_impls ()) () with
    | Error e -> Error ("cannot start loopback server: " ^ e)
    | Ok server ->
      Fun.protect ~finally:(fun () -> Udp_socket.stop_server server) @@ fun () ->
      (match Udp_socket.connect ~port:(Udp_socket.server_port server) ~intf () with
      | Error e -> Error ("cannot connect: " ^ e)
      | Ok c ->
        Fun.protect ~finally:(fun () -> Udp_socket.close c) @@ fun () ->
        let tmg = Udp_socket.timing () in
        let us span = Sim.Time.to_us span in
        let null_idx = Driver.proc_idx Null and maxarg_idx = Driver.proc_idx Max_arg in
        let null_args = Driver.args_of Null and maxarg_args = Driver.args_of Max_arg in
        let maxarg = List.hd maxarg_args in
        for _ = 1 to 5 do
          ignore (Udp_socket.call c ~proc_idx:null_idx ~args:null_args)
        done;
        let null_us =
          time_us ~iters:calls (fun () ->
              ignore (Udp_socket.call c ~proc_idx:null_idx ~args:null_args))
        in
        let maxarg_us =
          time_us ~iters:calls (fun () ->
              ignore (Udp_socket.call c ~proc_idx:maxarg_idx ~args:maxarg_args))
        in
        (* Micro-timings of the shared encoders, outside the socket. *)
        let iters = 2000 in
        let p_maxarg = intf.Idl.procs.(maxarg_idx) in
        let encode () =
          let w = Wire.Bytebuf.Writer.create 2048 in
          Marshal.encode_args w Marshal.In_call_packet p_maxarg maxarg_args;
          Wire.Bytebuf.Writer.contents w
        in
        let encoded = encode () in
        let enc_us = time_us ~iters (fun () -> ignore (encode ())) in
        let dec_us =
          time_us ~iters (fun () ->
              ignore
                (Marshal.decode_args
                   (Wire.Bytebuf.Reader.of_bytes encoded)
                   Marshal.In_call_packet p_maxarg))
        in
        let frame74 = Bytes.init 74 (fun i -> Char.chr (i land 0xff)) in
        let frame1514 = Bytes.init 1514 (fun i -> Char.chr (i * 7 land 0xff)) in
        let ck74_us =
          time_us ~iters (fun () -> ignore (Wire.Checksum.checksum frame74 ~pos:0 ~len:74))
        in
        let ck1514_us =
          time_us ~iters (fun () ->
              ignore (Wire.Checksum.checksum frame1514 ~pos:0 ~len:1514))
        in
        let hdr =
          {
            Rpc.Proto.ptype = Rpc.Proto.Call;
            please_ack = false;
            no_frag_ack = false;
            secured = false;
            activity =
              {
                Rpc.Proto.Activity.caller_ip = Udp_socket.caller_endpoint.Rpc.Frames.ip;
                caller_space = 1;
                thread = 1;
              };
            seq = 1;
            server_space = 1;
            interface_id = Idl.interface_id intf;
            proc_idx = maxarg_idx;
            frag_idx = 0;
            frag_count = 1;
            data_len = 0;
            checksum = 0;
          }
        in
        let payload_len = min (Bytes.length encoded) (Hw.Timing.max_payload_bytes tmg) in
        let build () =
          Rpc.Frames.build tmg ~src:Udp_socket.caller_endpoint
            ~dst:Udp_socket.server_endpoint ~hdr ~payload:encoded ~payload_pos:0
            ~payload_len
        in
        let built = build () in
        let build_us = time_us ~iters (fun () -> ignore (build ())) in
        let parse_us =
          time_us ~iters (fun () ->
              match Rpc.Frames.parse tmg built with
              | Ok _ -> ()
              | Error e -> failwith ("crossval: built frame does not parse: " ^ e))
        in
        let rows =
          [
            row "Null() RPC round-trip" ~measured:null_us ~calibrated:sim_null_us;
            row "MaxArg(1440) RPC round-trip" ~measured:maxarg_us ~calibrated:sim_maxarg_us;
            row "marshal MaxArg argument (encode)" ~measured:enc_us
              ~calibrated:
                (us
                   (Marshal.cost tmg Marshal.Caller_side Marshal.In_call_packet
                      (List.hd p_maxarg.Idl.args) maxarg));
            row "unmarshal MaxArg argument (decode)" ~measured:dec_us
              ~calibrated:
                (us
                   (Marshal.cost tmg Marshal.Server_side Marshal.In_call_packet
                      (List.hd p_maxarg.Idl.args) maxarg));
            row "UDP checksum, 74-byte frame" ~measured:ck74_us
              ~calibrated:(us (Hw.Timing.udp_checksum tmg ~bytes:74));
            row "UDP checksum, 1514-byte frame" ~measured:ck1514_us
              ~calibrated:(us (Hw.Timing.udp_checksum tmg ~bytes:1514));
            row "build full Call frame (headers)" ~measured:build_us
              ~calibrated:(us (Hw.Timing.finish_udp_header tmg));
            row "parse + validate received frame" ~measured:parse_us
              ~calibrated:(us (Hw.Timing.rx_demux tmg));
          ]
        in
        Ok
          (Report.Table.make ~id:"crossval"
             ~title:
               (Printf.sprintf
                  "Measured (loopback UDP, this host) vs calibrated (MicroVAX II), %d calls"
                  calls)
             ~columns:[ "operation"; "measured us"; "calibrated us"; "model/host" ]
             ~notes:
               [
                 "The measured column times the production encoders and whole RPCs over a \
                  real loopback UDP socket in wall-clock time; the calibrated column is the \
                  simulator's Table VI/II-V constant for the same operation on 1987 hardware.";
                 "The frames on the loopback wire are byte-identical to the simulator's: \
                  both sides are produced by Frames.build and validated by Frames.parse \
                  (checksums verified for real).";
                 "Round-trip rows include kernel scheduling and socket syscalls; micro rows \
                  time the shared encoder functions alone.";
                 "Decode of a VAR IN argument is free in the cost model (single copy, \
                  charged at the caller); the measured column shows the real work the model \
                  prices at zero on this path.";
               ]
             rows))
  end
