type ty =
  | T_int
  | T_fixed_bytes of int
  | T_var_bytes of int
  | T_text of int
  | T_bool
  | T_int16
  | T_real
  | T_record of ty list
  | T_seq of ty * int

type mode = Value | Var_in | Var_out

type arg = { arg_name : string; ty : ty; mode : mode }
type proc = { proc_name : string; args : arg list }
type interface = { intf_name : string; intf_version : int; procs : proc array }

let rec validate_ty = function
  | T_fixed_bytes n when n <= 0 -> invalid_arg "Idl.arg: fixed array size must be positive"
  | T_var_bytes n when n <= 0 -> invalid_arg "Idl.arg: var array max must be positive"
  | T_text n when n < 0 -> invalid_arg "Idl.arg: text max must be >= 0"
  | T_record [] -> invalid_arg "Idl.arg: empty record"
  | T_record fields -> List.iter validate_ty fields
  | T_seq (_, max) when max <= 0 -> invalid_arg "Idl.arg: sequence max must be positive"
  | T_seq (elt, _) -> validate_ty elt
  | T_int | T_fixed_bytes _ | T_var_bytes _ | T_text _ | T_bool | T_int16 | T_real -> ()

let arg ?(mode = Value) arg_name ty =
  validate_ty ty;
  { arg_name; ty; mode }

let proc proc_name args = { proc_name; args }

let rec wire_size_bound = function
  | T_int -> 4
  | T_fixed_bytes n -> n
  | T_var_bytes n -> 2 + n
  | T_text n -> 3 + n
  | T_bool -> 1
  | T_int16 -> 2
  | T_real -> 8
  | T_record fields -> List.fold_left (fun acc f -> acc + wire_size_bound f) 0 fields
  | T_seq (elt, max) -> 2 + (max * wire_size_bound elt)

let args_size_bound p = List.fold_left (fun acc a -> acc + wire_size_bound a.ty) 0 p.args

let interface ~name ~version procs =
  if String.length name = 0 then invalid_arg "Idl.interface: empty name";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.proc_name then
        invalid_arg ("Idl.interface: duplicate procedure " ^ p.proc_name);
      Hashtbl.add seen p.proc_name ();
      if args_size_bound p > 0xffff then
        invalid_arg ("Idl.interface: arguments of " ^ p.proc_name ^ " too large"))
    procs;
  { intf_name = name; intf_version = version; procs = Array.of_list procs }

(* FNV-1a over name and version: stable across runs, unlike
   [Hashtbl.hash] which is documented to vary between OCaml versions. *)
let interface_id t =
  let h = ref 0x811c9dc5 in
  let feed c = h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff in
  String.iter feed t.intf_name;
  feed ':';
  String.iter feed (string_of_int t.intf_version);
  Int32.of_int !h

let find_proc t name =
  let rec go i =
    if i >= Array.length t.procs then raise Not_found
    else if String.equal t.procs.(i).proc_name name then i
    else go (i + 1)
  in
  go 0
