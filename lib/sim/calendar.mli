(** A calendar queue over the shared flat event nodes ({!Evnode}): the
    engine's alternative to the {!Eventq} heaps, tuned for the
    dense-timestamp regime that fleet simulations produce.

    Events hash by [time asr shift] into a power-of-two array of
    per-"day" buckets (sorted lists with an O(1) append fast path)
    covering a sliding window from the scan position; events beyond the
    window sit in an overflow {!Eventq} (same node pool) and migrate
    in as the window slides.  Bucket count and width auto-resize from
    observed event density.

    The [(time, tie, seq)] key is a total order, so the pop sequence is
    byte-identical to {!Eventq}'s — simulations render the same output
    under either queue (tested in [test/sim]). *)

type t

val create : ?pool:Evnode.pool -> unit -> t
(** [pool] (default: a fresh one) is the node registry the queue's
    nodes come from; the overflow {!Eventq} shares it. *)

val size : t -> int
val is_empty : t -> bool

val insert : t -> Evnode.t -> unit
(** [insert t n] files an already-filled node.  [n.seq] must be unique
    across live events for the order to be total. *)

val add : t -> time:Time.t -> tie:int -> seq:int -> (unit -> unit) -> unit
(** Closure-mode insert: allocates a node off the pool and stores [run]
    in it. *)

val min_time : t -> Time.t
(** Time of the next event.
    @raise Invalid_argument when empty. *)

val pop : t -> Evnode.t
(** Removes and returns the minimum node; the caller dispatches its
    payload and recycles it through the pool.
    @raise Invalid_argument when empty. *)
