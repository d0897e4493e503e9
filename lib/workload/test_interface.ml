module Time = Sim.Time

let buffer_bytes = 1440

let get_data_max = 60_000

let interface =
  Rpc.Idl.interface ~name:"Test" ~version:1
    [
      Rpc.Idl.proc "Null" [];
      Rpc.Idl.proc "MaxResult" [ Rpc.Idl.arg ~mode:Rpc.Idl.Var_out "buffer" (Rpc.Idl.T_var_bytes buffer_bytes) ];
      Rpc.Idl.proc "MaxArg" [ Rpc.Idl.arg ~mode:Rpc.Idl.Var_in "buffer" (Rpc.Idl.T_var_bytes buffer_bytes) ];
      Rpc.Idl.proc "GetData"
        [
          Rpc.Idl.arg "len" Rpc.Idl.T_int;
          Rpc.Idl.arg ~mode:Rpc.Idl.Var_out "buffer" (Rpc.Idl.T_var_bytes get_data_max);
        ];
    ]

let null_idx = Rpc.Idl.find_proc interface "Null"
let max_result_idx = Rpc.Idl.find_proc interface "MaxResult"
let max_arg_idx = Rpc.Idl.find_proc interface "MaxArg"
let get_data_idx = Rpc.Idl.find_proc interface "GetData"

(* Byte i is (i * 7) land 0xff, which repeats every 256 bytes: blit one
   period, then double the filled prefix, so building a payload costs a
   few memcpys rather than a closure call per byte. *)
let period = Bytes.init 256 (fun i -> Char.chr ((i * 7) land 0xff))

let pattern n =
  let b = Bytes.create n in
  Bytes.blit period 0 b 0 (min n 256);
  let rec double filled =
    if filled < n then begin
      Bytes.blit b 0 b filled (min filled (n - filled));
      double (2 * filled)
    end
  in
  double 256;
  b

(* MaxArg's argument is checked against this one copy, built once, so a
   check allocates nothing; MaxResult returns it. *)
let max_arg_pattern = pattern buffer_bytes

(* The last GetData payload built, kept while the length asked for stays
   the same (a run asks for one), so serving a call and checking its
   result build nothing.  Atomic: repro jobs share it across domains,
   and the bytes are never written once published; every transport
   copies a result into its packets when it marshals it. *)
let last_payload = Atomic.make Bytes.empty

let payload n =
  let p = Atomic.get last_payload in
  if Bytes.length p = n then p
  else begin
    let p = pattern n in
    Atomic.set last_payload p;
    p
  end

let fail msg = Rpc.Rpc_error.fail (Rpc.Rpc_error.Marshal_failure msg)

let null _ = []

(* The server procedure writes the result directly into the result
   packet buffer (§2.2). *)
let max_result_outs = [ Rpc.Marshal.V_bytes max_arg_pattern ]

let max_result _ = max_result_outs

let max_arg = function
  | [ Rpc.Marshal.V_bytes b ] when Bytes.equal b max_arg_pattern -> []
  | _ -> fail "MaxArg: payload does not match the test pattern"

let get_data = function
  | [ Rpc.Marshal.V_int n; Rpc.Marshal.V_bytes _ ] ->
    let n = Int32.to_int n in
    if n < 0 || n > get_data_max then fail "GetData: length out of range";
    [ Rpc.Marshal.V_bytes (payload n) ]
  | _ -> fail "GetData: bad arguments"

(* In the interface's order. *)
let procedures () = [| null; max_result; max_arg; get_data |]

let impls () =
  Array.map
    (fun proc ctx args ->
      Hw.Cpu_set.charge ctx ~cat:"runtime" ~label:"Null (the server procedure)" (Time.us 10);
      proc args)
    (procedures ())
