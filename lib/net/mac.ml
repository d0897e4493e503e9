type t = string (* exactly 6 bytes *)

let size = 6
let broadcast = "\xff\xff\xff\xff\xff\xff"

let of_station n =
  if n < 0 || n > 0xffffff then invalid_arg "Mac.of_station: out of range";
  (* 0x02 = locally administered, unicast. *)
  Printf.sprintf "\x02\x00\x00%c%c%c"
    (Char.chr ((n lsr 16) land 0xff))
    (Char.chr ((n lsr 8) land 0xff))
    (Char.chr (n land 0xff))

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let byte x =
      match int_of_string_opt ("0x" ^ x) with
      | Some v when v >= 0 && v <= 0xff -> Char.chr v
      | _ -> invalid_arg ("Mac.of_string: bad octet " ^ x)
    in
    let parts = List.map byte [ a; b; c; d; e; f ] in
    String.init 6 (List.nth parts)
  | _ -> invalid_arg ("Mac.of_string: " ^ s)

let to_string t =
  String.concat ":" (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let is_broadcast t = equal t broadcast
let pp fmt t = Format.pp_print_string fmt (to_string t)
let get b pos = Bytes.sub_string b pos size
let set b pos t = Bytes.blit_string t 0 b pos size

let read r = get (Wire.Bytebuf.Reader.unsafe_buffer r) (Wire.Bytebuf.Reader.claim r size)
