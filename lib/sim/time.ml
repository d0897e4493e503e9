type t = int
type span = int

let zero = 0
let zero_span = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let us_f x =
  let v = x *. 1_000. in
  int_of_float (Float.round v)

let sec_f x = int_of_float (Float.round (x *. 1e9))
let add t d = t + d
let diff later earlier = later - earlier
let span_add a b = a + b
let span_sub a b = a - b
let span_scale f d = int_of_float (Float.round (f *. float_of_int d))
let span_sum l = List.fold_left ( + ) 0 l
let span_compare = Int.compare
let span_is_negative d = d < 0
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = a <= b
let ( < ) (a : int) b = a < b
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b
let to_ns d = d
let to_us d = float_of_int d /. 1e3
let to_ms d = float_of_int d /. 1e6
let to_sec d = float_of_int d /. 1e9
let since_start_ns t = t
let since_start_us t = float_of_int t /. 1e3
let since_start_sec t = float_of_int t /. 1e9
let of_ns_since_start n = n
let pp fmt t = Format.fprintf fmt "%.6fs" (since_start_sec t)

let span_to_string d =
  let a = abs d in
  if a < 1_000 then Printf.sprintf "%dns" d
  else if a < 1_000_000 then Printf.sprintf "%.2fus" (to_us d)
  else if a < 1_000_000_000 then Printf.sprintf "%.3fms" (to_ms d)
  else Printf.sprintf "%.3fs" (to_sec d)

let pp_span fmt d = Format.pp_print_string fmt (span_to_string d)
