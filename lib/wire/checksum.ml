(* 16-bit ones-complement sum (RFC 1071), 32 bytes per step.

   The definition is pairwise: [init] plus every big-endian 16-bit word
   of the range, an odd last byte as the high octet of a zero-padded
   word, folded to 16 bits.  [sum] computes exactly that, faster, with
   the properties RFC 1071 §2(A)-(C) lists:

   (A) Commutative and associative.  The words may be added in any
       order and grouping, so four independent accumulators take the
       four 8-byte loads of each 32-byte step, and carries are deferred:
       nothing is folded until the loop ends.  Each load adds less than
       2^33 to its accumulator, so the four stay below 2^62 together
       (no 63-bit overflow) for any range under 4 GB, far past any
       frame.
   (B) Byte order independence.  The sum of the byte-swapped words is
       the byte swap of the sum, so the loop adds little-endian words
       (what [Bytes.get_int64_le] loads without a swap on the usual
       hosts) and swaps the folded 16-bit result once.
   (C) Parallel summation.  A 64-bit load is four 16-bit words; adding
       its two 32-bit halves keeps the sum congruent mod 0xffff, since
       2^16 = 1 (mod 0xffff).

   A tail of 8-byte loads, then 16-bit words and an odd last byte (the
   low octet of a little-endian word), finish the range.  Every load
   stays bounds-checked.  The folded byte sum is zero only when every
   byte is, as in the pairwise definition, so adding [init] and folding
   again gives the same value, including which ones-complement zero
   (0x0000 or 0xffff) comes out. *)

let fold s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

(* The two 32-bit halves of a 64-bit load, added. *)
let[@inline] halves x =
  (Int64.to_int x land 0xffff_ffff) + Int64.to_int (Int64.shift_right_logical x 32)

let sum ?(init = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Checksum.sum: bad range";
  let stop = pos + len in
  let i = ref pos in
  let a = ref 0 and c = ref 0 and d = ref 0 and e = ref 0 in
  while !i + 32 <= stop do
    a := !a + halves (Bytes.get_int64_le b !i);
    c := !c + halves (Bytes.get_int64_le b (!i + 8));
    d := !d + halves (Bytes.get_int64_le b (!i + 16));
    e := !e + halves (Bytes.get_int64_le b (!i + 24));
    i := !i + 32
  done;
  let s = ref (!a + !c + !d + !e) in
  while !i + 8 <= stop do
    s := !s + halves (Bytes.get_int64_le b !i);
    i := !i + 8
  done;
  while !i + 2 <= stop do
    s := !s + Bytes.get_uint16_le b !i;
    i := !i + 2
  done;
  if !i < stop then s := !s + Bytes.get_uint8 b !i;
  let s = fold !s in
  fold (init + (((s land 0xff) lsl 8) lor (s lsr 8)))

let finish s = lnot (fold s) land 0xffff
let checksum ?init b ~pos ~len = finish (sum ?init b ~pos ~len)

let verify ?init b ~pos ~len = fold (sum ?init b ~pos ~len) = 0xffff
