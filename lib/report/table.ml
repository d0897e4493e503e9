type t = {
  id : string;
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~columns ?(notes = []) rows =
  List.iteri
    (fun i r ->
      if List.length r <> List.length columns then
        invalid_arg (Printf.sprintf "Report.Table.make %s: row %d has %d cells, want %d" id i
             (List.length r) (List.length columns)))
    rows;
  { id; title; columns; rows; notes }

let render t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let width c = List.fold_left (fun w row -> max w (String.length (List.nth row c))) 0 all in
  let widths = List.init ncols width in
  let pad c s =
    let w = List.nth widths c in
    String.make (w - String.length s) ' ' ^ s
  in
  let render_row row = "  " ^ String.concat "  " (List.mapi pad row) in
  let sep =
    "  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" t.id t.title);
  Buffer.add_string buf (render_row t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf sep;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    t.rows;
  List.iter (fun n -> Buffer.add_string buf ("  note: " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let print t = print_string (render t)
let cell_f ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v
let cell_i = string_of_int

let pct_delta ~paper ~measured =
  if paper = 0. then 0. else (measured -. paper) /. paper *. 100.

let compare_cell ~paper ~measured =
  Printf.sprintf "%.2f / %.2f (%+.0f%%)" paper measured (pct_delta ~paper ~measured)
