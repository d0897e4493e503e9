(* Shared plumbing: the host clock, a growable sample buffer, order
   statistics, seed derivation, a major-heap peak tracker and the
   per-sample record every workload returns. *)

(* Host wall clock in seconds, from the monotonic clock at ns resolution
   (a loopback round trip is ~20 us, too short for a us-grained clock). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A growable float buffer for per-call latencies, kept outside the
   OCaml heap (a Bigarray) so a run's samples do not inflate the
   major-heap peak the benchmark reports. *)
module Fbuf = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 1024; n = 0 }

  let push t x =
    if t.n = Array1.dim t.a then begin
      let a = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub a 0 t.n);
      t.a <- a
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let a = Array.init t.n (Array1.get t.a) in
    Array.sort Float.compare a;
    a
end

(* Nearest-rank percentile of an ascending array — the definition the
   repository's own latency reports use. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (float_of_int n *. p)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a 0.5

(* Sample k of a run draws its model seed from the benchmark seed alone,
   so the same --seed replays the same simulated inputs. *)
let derive_seed seed k = ((seed * 1_000_003) + (k * 7919) + 17) land 0x3FFF_FFFF

(* Peak major-heap size over a window: sampled at the end of every major
   cycle (a GC alarm) and whenever the caller polls between samples. *)
module Heap_peak = struct
  let peak_words = ref 0

  let poll () =
    let w = (Gc.quick_stat ()).Gc.heap_words in
    if w > !peak_words then peak_words := w

  let alarm = lazy (Gc.create_alarm poll)

  let reset () =
    Lazy.force alarm |> ignore;
    peak_words := 0;
    poll ()

  let mb () = float_of_int (!peak_words * (Sys.word_size / 8)) /. 1048576.
end

(* What one sample of any workload reports.  [s_lat_us] holds host
   latencies per procedure class (index into the workload's class
   names); [s_counts] are additive per-layer counters, summed over the
   samples of a window; [s_digest] hashes the sample's deterministic
   simulated outputs; [s_spans] is the sample's span trace when it ran
   traced, read only for the samples the ledger uses. *)
type sample = {
  s_calls : int;
  s_failed : int;
  s_wall : float;
  s_lat_us : (int * float) list;
  s_events : int;
  s_counts : (string * float) list;
  s_digest : string;
  s_spans : Sim.Trace.span list Lazy.t;
}

let count name s = try List.assoc name s.s_counts with Not_found -> 0.

(* Sums the integer-valued rows named [name] over every site of a
   metrics snapshot: counters by value, histograms by sample count. *)
let snapshot_sum snap name =
  List.fold_left
    (fun acc (r : Obs.Metrics.Snapshot.row) ->
      if String.equal r.name name then
        match r.value with
        | Obs.Metrics.Snapshot.Count n -> acc + n
        | Dist d -> acc + d.count
        | Gauge _ | Level _ -> acc
      else acc)
    0 snap.Obs.Metrics.Snapshot.rows

(* The hw/nub counters every simulated workload reports, summed over
   all machines of a run's registry. *)
let model_counts snap =
  let c name = float_of_int (snapshot_sum snap name) in
  [
    ("frames", c "deqna.tx_frames");
    ("interrupts", c "driver.interrupts");
    ("wakeups", c "wakeup_latency_us");
    ("pool_exhaustions", c "bufpool.exhaustions");
    ("rx_no_buffer", c "deqna.rx_no_buffer");
  ]
