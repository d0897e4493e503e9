(* The reference loop: a fixed piece of OCaml work, independent of the
   repository's code, timed between samples.  Host speed on a shared
   machine drifts by tens of percent between runs (frequency scaling,
   neighbours on the same cores and caches), and CPU time drifts with
   it; the simulator and the loop slow down together, so dividing a
   workload's host time by the loop's time cancels most of that drift.

   The mix mirrors what the simulator spends its time on: a stream of
   short-lived small blocks, pointer chasing through a persistent search
   tree, hashing and a byte loop.  Its working set stays in the minor
   heap and a 4 KB buffer, so its time follows the core's speed, not
   how much of the cache the previous sample left behind. *)

type tree = Leaf | Node of tree * int * tree

let rec insert t k =
  match t with
  | Leaf -> Node (Leaf, k, Leaf)
  | Node (l, x, r) -> if k < x then Node (insert l k, x, r) else Node (l, x, insert r k)

let rec sum = function Leaf -> 0 | Node (l, x, r) -> sum l + x + sum r

let scratch = Bytes.init 4096 (fun i -> Char.chr ((i * 31) land 0xff))

let body () =
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    !x
  in
  let t = ref Leaf in
  for _ = 1 to 2000 do
    t := insert !t (next ())
  done;
  let l = ref [] in
  for i = 1 to 15_000 do
    l := (i, next ()) :: !l
  done;
  let h = Hashtbl.create 256 in
  List.iter (fun (i, v) -> if i land 3 = 0 then Hashtbl.replace h (v land 1023) i) !l;
  let s = ref 0 in
  for _ = 1 to 16 do
    for i = 0 to Bytes.length scratch - 1 do
      s := !s + Char.code (Bytes.unsafe_get scratch i)
    done
  done;
  sum !t + Hashtbl.length h + !s

(* The loop's time on the machine the benchmark was calibrated on; a
   normalized metric reads as the raw value would have on that host. *)
let nominal_ms = 1.0

(* The minor heap is emptied first, and the body allocates well under
   the default minor heap (256k words), so no collection lands inside
   the timed body and nothing it allocates is promoted into the major
   heap the benchmark reports. *)
let time_ms () =
  Gc.minor ();
  let t0 = Common.now () in
  ignore (Sys.opaque_identity (body ()));
  (Common.now () -. t0) *. 1e3
