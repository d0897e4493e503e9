module W = Wire.Bytebuf.Writer
module R = Wire.Bytebuf.Reader
module Time = Sim.Time

type value =
  | V_int of int32
  | V_bytes of Bytes.t
  | V_text of string option
  | V_bool of bool
  | V_int16 of int
  | V_real of float
  | V_record of value list
  | V_seq of value list

let fail fmt = Printf.ksprintf (fun s -> Rpc_error.fail (Rpc_error.Marshal_failure s)) fmt

let rec type_check ty v =
  match ty, v with
  | Idl.T_int, V_int _ -> Ok ()
  | Idl.T_fixed_bytes n, V_bytes b ->
    if Bytes.length b = n then Ok ()
    else Error (Printf.sprintf "fixed array: expected %d bytes, got %d" n (Bytes.length b))
  | Idl.T_var_bytes max, V_bytes b ->
    if Bytes.length b <= max then Ok ()
    else Error (Printf.sprintf "var array: %d bytes exceeds max %d" (Bytes.length b) max)
  | Idl.T_text max, V_text (Some s) ->
    if String.length s <= max then Ok ()
    else Error (Printf.sprintf "text: %d bytes exceeds max %d" (String.length s) max)
  | Idl.T_text _, V_text None -> Ok ()
  | Idl.T_bool, V_bool _ -> Ok ()
  | Idl.T_int16, V_int16 v ->
    if v >= -32768 && v <= 32767 then Ok ()
    else Error (Printf.sprintf "int16: %d out of range" v)
  | Idl.T_real, V_real _ -> Ok ()
  | Idl.T_record fields, V_record vs ->
    if List.length fields <> List.length vs then Error "record: field count mismatch"
    else
      List.fold_left2
        (fun acc f v ->
          match acc with
          | Error _ -> acc
          | Ok () -> type_check f v)
        (Ok ()) fields vs
  | Idl.T_seq (elt, max), V_seq vs ->
    if List.length vs > max then
      Error (Printf.sprintf "sequence: %d elements exceeds max %d" (List.length vs) max)
    else
      List.fold_left
        (fun acc v ->
          match acc with
          | Error _ -> acc
          | Ok () -> type_check elt v)
        (Ok ()) vs
  | ( ( Idl.T_int | Idl.T_fixed_bytes _ | Idl.T_var_bytes _ | Idl.T_text _ | Idl.T_bool
      | Idl.T_int16 | Idl.T_real | Idl.T_record _ | Idl.T_seq _ ),
      _ ) ->
    Error "value does not match declared type"

let rec equal_value a b =
  match a, b with
  | V_int x, V_int y -> Int32.equal x y
  | V_bytes x, V_bytes y -> Bytes.equal x y
  | V_text x, V_text y -> Option.equal String.equal x y
  | V_bool x, V_bool y -> Bool.equal x y
  | V_int16 x, V_int16 y -> Int.equal x y
  | V_real x, V_real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V_record x, V_record y | V_seq x, V_seq y ->
    List.length x = List.length y && List.for_all2 equal_value x y
  | ( ( V_int _ | V_bytes _ | V_text _ | V_bool _ | V_int16 _ | V_real _ | V_record _
      | V_seq _ ),
      _ ) ->
    false

type direction = In_call_packet | In_result_packet

let travels mode dir =
  match mode, dir with
  | Idl.Value, In_call_packet -> true
  | Idl.Value, In_result_packet -> false
  | Idl.Var_in, In_call_packet -> true
  | Idl.Var_in, In_result_packet -> false
  | Idl.Var_out, In_call_packet -> false
  | Idl.Var_out, In_result_packet -> true

let rec placeholder = function
  | Idl.T_int -> V_int 0l
  | Idl.T_fixed_bytes n -> V_bytes (Bytes.make n '\000')
  | Idl.T_var_bytes _ -> V_bytes Bytes.empty
  | Idl.T_text _ -> V_text None
  | Idl.T_bool -> V_bool false
  | Idl.T_int16 -> V_int16 0
  | Idl.T_real -> V_real 0.
  | Idl.T_record fields -> V_record (List.map placeholder fields)
  | Idl.T_seq _ -> V_seq []

(* A variable-length array that is the last travelling argument of a
   packet carries no length prefix — its size is implicit in the packet
   length.  This is how the stub compiler makes MaxResult's 1440-byte
   VAR OUT buffer fit the 1514-byte maximum frame exactly (74 bytes of
   headers + 1440 of data, §2). *)
let rec encode_one w ty v ~last =
  (match type_check ty v with
  | Ok () -> ()
  | Error e -> fail "%s" e);
  match ty, v with
  | Idl.T_int, V_int x -> W.u32 w x
  | Idl.T_fixed_bytes _, V_bytes b -> W.bytes w b
  | Idl.T_var_bytes _, V_bytes b ->
    if not last then W.u16 w (Bytes.length b);
    W.bytes w b
  | Idl.T_text _, V_text None -> W.u8 w 0
  | Idl.T_text _, V_text (Some s) ->
    W.u8 w 1;
    W.u16 w (String.length s);
    W.string w s
  | Idl.T_bool, V_bool b -> W.u8 w (if b then 1 else 0)
  | Idl.T_int16, V_int16 v -> W.u16 w (v land 0xffff)
  | Idl.T_real, V_real v ->
    let bits = Int64.bits_of_float v in
    W.u32 w (Int64.to_int32 (Int64.shift_right_logical bits 32));
    W.u32 w (Int64.to_int32 bits)
  | Idl.T_record fields, V_record vs ->
    List.iter2 (fun f v -> encode_one w f v ~last:false) fields vs
  | Idl.T_seq (elt, _), V_seq vs ->
    W.u16 w (List.length vs);
    List.iter (fun v -> encode_one w elt v ~last:false) vs
  | ( ( Idl.T_int | Idl.T_fixed_bytes _ | Idl.T_var_bytes _ | Idl.T_text _ | Idl.T_bool
      | Idl.T_int16 | Idl.T_real | Idl.T_record _ | Idl.T_seq _ ),
      _ ) ->
    fail "type/value mismatch"

let rec decode_one r ty ~last =
  try
    match ty with
    | Idl.T_int -> V_int (R.u32 r)
    | Idl.T_fixed_bytes n -> V_bytes (R.bytes r n)
    | Idl.T_var_bytes max ->
      let n = if last then R.remaining r else R.u16 r in
      if n > max then fail "var array length %d exceeds max %d" n max;
      V_bytes (R.bytes r n)
    | Idl.T_text max -> (
      match R.u8 r with
      | 0 -> V_text None
      | 1 ->
        let n = R.u16 r in
        if n > max then fail "text length %d exceeds max %d" n max;
        V_text (Some (R.string r n))
      | tag -> fail "bad text tag %d" tag)
    | Idl.T_bool -> (
      match R.u8 r with
      | 0 -> V_bool false
      | 1 -> V_bool true
      | tag -> fail "bad boolean %d" tag)
    | Idl.T_int16 ->
      let raw = R.u16 r in
      V_int16 (if raw >= 0x8000 then raw - 0x10000 else raw)
    | Idl.T_real ->
      let hi = R.u32 r in
      let lo = R.u32 r in
      V_real
        (Int64.float_of_bits
           (Int64.logor
              (Int64.shift_left (Int64.of_int32 hi) 32)
              (Int64.logand (Int64.of_int32 lo) 0xffffffffL)))
    | Idl.T_record fields -> V_record (List.map (fun f -> decode_one r f ~last:false) fields)
    | Idl.T_seq (elt, max) ->
      let n = R.u16 r in
      if n > max then fail "sequence length %d exceeds max %d" n max;
      V_seq (List.init n (fun _ -> decode_one r elt ~last:false))
  with Wire.Bytebuf.Overflow e -> fail "truncated packet: %s" e

let zip_args p values =
  let rec go args vs =
    match args, vs with
    | [], [] -> []
    | a :: args, v :: vs -> (a, v) :: go args vs
    | _ -> fail "procedure %s: wrong argument count" p.Idl.proc_name
  in
  go p.Idl.args values

(* Mark the last travelling argument of the packet. *)
let with_last dir args =
  let last_arg =
    List.fold_left (fun acc (a, _) -> if travels a.Idl.mode dir then Some a else acc) None args
  in
  let is_last a =
    match last_arg with
    | Some l -> l == a
    | None -> false
  in
  List.map (fun (a, x) -> (a, x, is_last a)) args

let encode_args w dir p values =
  List.iter
    (fun (a, v, last) -> if travels a.Idl.mode dir then encode_one w a.Idl.ty v ~last)
    (with_last dir (zip_args p values))

let decode_args r dir p =
  List.map
    (fun (a, (), last) ->
      if travels a.Idl.mode dir then decode_one r a.Idl.ty ~last else placeholder a.Idl.ty)
    (with_last dir (List.map (fun a -> (a, ())) p.Idl.args))

(* {1 Cost model} *)

type side = Caller_side | Server_side

let rec value_size = function
  | V_int _ -> 4
  | V_bytes b -> Bytes.length b
  | V_text None -> 0
  | V_text (Some s) -> String.length s
  | V_bool _ -> 1
  | V_int16 _ -> 2
  | V_real _ -> 8
  | V_record vs | V_seq vs -> List.fold_left (fun acc v -> acc + value_size v) 0 vs

(* Cost placement (§2.2): Value ints cost a copy at each end; VAR
   arrays cost their single copy at the caller — into the call packet
   for VAR IN, out of the result packet for VAR OUT; Text.T costs a
   caller copy plus a server allocate-and-copy, each charged on the
   packet the text travels in.  Composite types (records, sequences —
   beyond what the paper measured) cost the sum of their parts, so the
   fitted Tables II–V points are preserved exactly and extensions
   compose from them. *)
let rec cost_ty timing side ty v =
  let bytes = value_size v in
  match ty, side with
  | Idl.T_int, Caller_side -> Hw.Timing.marshal_int_caller timing
  | Idl.T_int, Server_side -> Hw.Timing.marshal_int_server timing
  | (Idl.T_bool | Idl.T_int16), Caller_side -> Hw.Timing.marshal_int_caller timing
  | (Idl.T_bool | Idl.T_int16), Server_side -> Hw.Timing.marshal_int_server timing
  | Idl.T_real, Caller_side -> Time.span_scale 2. (Hw.Timing.marshal_int_caller timing)
  | Idl.T_real, Server_side -> Time.span_scale 2. (Hw.Timing.marshal_int_server timing)
  | Idl.T_fixed_bytes _, Caller_side -> Hw.Timing.marshal_fixed_array timing ~bytes
  | Idl.T_fixed_bytes _, Server_side -> Time.zero_span
  | Idl.T_var_bytes _, Caller_side -> Hw.Timing.marshal_var_array timing ~bytes
  | Idl.T_var_bytes _, Server_side -> Time.zero_span
  | Idl.T_text _, Caller_side ->
    if v = V_text None then Hw.Timing.marshal_text_nil timing
    else Hw.Timing.marshal_text_caller timing ~bytes
  | Idl.T_text _, Server_side ->
    if v = V_text None then Time.zero_span
    else Hw.Timing.marshal_text_server timing ~bytes
  | Idl.T_record fields, _ -> (
    match v with
    | V_record vs ->
      List.fold_left2
        (fun acc f fv -> Time.span_add acc (cost_ty timing side f fv))
        Time.zero_span fields vs
    | _ -> Time.zero_span)
  | Idl.T_seq (elt, _), _ -> (
    match v with
    | V_seq vs ->
      List.fold_left
        (fun acc ev -> Time.span_add acc (cost_ty timing side elt ev))
        (cost_ty timing side Idl.T_int16 (V_int16 0) (* the count field *))
        vs
    | _ -> Time.zero_span)

let cost timing side dir a v =
  if not (travels a.Idl.mode dir) then Time.zero_span else cost_ty timing side a.Idl.ty v

let charge_args timing ctx side dir p values =
  let total =
    List.fold_left
      (fun acc (a, v) -> Time.span_add acc (cost timing side dir a v))
      Time.zero_span (zip_args p values)
  in
  Hw.Cpu_set.charge ctx ~cat:"runtime" ~label:"Marshalling" total

(* Merge Var_out results into the full argument list for result-packet
   encoding. *)
let merge_outs p in_values outs =
  let rec go args ins outs =
    match args, ins with
    | [], [] ->
      if outs <> [] then
        Rpc_error.fail (Rpc_error.Marshal_failure "too many results from implementation");
      []
    | a :: args, v :: ins -> (
      match a.Idl.mode with
      | Idl.Var_out -> (
        match outs with
        | o :: rest -> o :: go args ins rest
        | [] ->
          Rpc_error.fail
            (Rpc_error.Marshal_failure ("missing result for VAR OUT argument " ^ a.Idl.arg_name)))
      | Idl.Value | Idl.Var_in -> v :: go args ins outs)
    | _ -> Rpc_error.fail (Rpc_error.Marshal_failure "argument count mismatch")
  in
  go p.Idl.args in_values outs

let extract_outs p values =
  List.filter_map
    (fun (a, v) ->
      match a.Idl.mode with
      | Idl.Var_out -> Some v
      | Idl.Value | Idl.Var_in -> None)
    (List.combine p.Idl.args values)
