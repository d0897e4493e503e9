(** The Internet ones-complement checksum (RFC 1071).

    This is the checksum the Firefly computes in software over every UDP
    packet — 45 µs for a minimum RPC packet and 440 µs for a full one on
    a MicroVAX II, i.e. 7–16 % of an RPC (paper §4.2.4).  Here it is
    implemented for real and verified end-to-end by the simulated stack;
    the {e time} it costs the simulated CPUs is charged separately by
    the calibrated timing model.

    The host loop takes 32 bytes per step, as RFC 1071 §2 suggests: four
    64-bit loads into four accumulators whose carries are folded only
    at the end (§2(A), any order and grouping), little-endian words and
    one byte swap of the result (§2(B)), and each load's two 32-bit
    halves added as one parallel sum (§2(C)).  A tail of 8-byte loads,
    16-bit words and an odd byte finishes the range, and every load is
    bounds-checked.  Every result equals the pairwise definition below,
    including which ones-complement zero (0x0000 or 0xffff) comes
    out. *)

val sum : ?init:int -> Stdlib.Bytes.t -> pos:int -> len:int -> int
(** [sum b ~pos ~len] is the running ones-complement sum (not yet
    complemented) of the given range, folding an odd trailing byte as
    the high octet per RFC 1071: [init] plus each big-endian 16-bit word
    of the range, folded to 16 bits.  [init] threads a previous partial
    sum (a non-negative int) so multi-region sums (pseudo-header +
    payload) compose.
    @raise Invalid_argument ["Checksum.sum: bad range"] if the range is
    not inside [b]. *)

val finish : int -> int
(** [finish s] complements and folds a running sum into a 16-bit
    checksum field value. *)

val checksum : ?init:int -> Stdlib.Bytes.t -> pos:int -> len:int -> int
(** [checksum b ~pos ~len] = [finish (sum b ~pos ~len)]. *)

val verify : ?init:int -> Stdlib.Bytes.t -> pos:int -> len:int -> bool
(** [verify b ~pos ~len] is [true] iff the range, {e including} its
    embedded checksum field, sums to the all-ones value — the standard
    receiver-side check. *)
