type event =
  | Packet_tx of { bytes : int }
  | Packet_rx of { bytes : int }
  | Retransmit of { seq : int }
  | Ack of { seq : int }
  | Interrupt
  | Ipi
  | Thread_wakeup
  | Bufpool_exhausted
  | Mark of string

type entry = { at : Sim.Time.t; site : string; ev : event }

(* The ring is stored column-wise, so recording an event allocates
   nothing: slot [i] is the instant in [ats.(i)], the event's kind and
   argument packed into [codes.(i)], and the site (a long-lived string
   the caller already holds) in [sites.(i)].  A [Mark]'s text is kept
   aside in [marks], which exists only once a [Mark] has been recorded.
   A ring of entry records would allocate one per event and keep it
   alive until it is promoted: on perfbench's pair-bulk, half of all
   the words promoted.  At capacity the columns take three words a slot
   (four with marks), a ring of entries one plus four to six. *)
type t = {
  cap : int;
  ats : int array;
  codes : int array;
  sites : string array;
  mutable marks : string array;
  mutable start : int;  (* slot of the oldest entry *)
  mutable len : int;
  mutable n_dropped : int;
  mutable n_total : int;
}

let create ?(capacity = 8192) () =
  if capacity < 1 then invalid_arg "Obs.Journal.create: capacity must be >= 1";
  {
    cap = capacity;
    ats = Array.make capacity 0;
    codes = Array.make capacity 0;
    sites = Array.make capacity "";
    marks = [||];
    start = 0;
    len = 0;
    n_dropped = 0;
    n_total = 0;
  }

(* A code is the kind in the low four bits over the argument (bytes or
   seq), which [asr] gives back with its sign for any argument in
   [-2^58, 2^58). *)
let[@inline] pack kind arg = kind lor (arg lsl 4)

let code = function
  | Packet_tx { bytes } -> pack 0 bytes
  | Packet_rx { bytes } -> pack 1 bytes
  | Retransmit { seq } -> pack 2 seq
  | Ack { seq } -> pack 3 seq
  | Interrupt -> 4
  | Ipi -> 5
  | Thread_wakeup -> 6
  | Bufpool_exhausted -> 7
  | Mark _ -> 8

let event_at t i =
  let c = t.codes.(i) in
  let arg = c asr 4 in
  match c land 15 with
  | 0 -> Packet_tx { bytes = arg }
  | 1 -> Packet_rx { bytes = arg }
  | 2 -> Retransmit { seq = arg }
  | 3 -> Ack { seq = arg }
  | 4 -> Interrupt
  | 5 -> Ipi
  | 6 -> Thread_wakeup
  | 7 -> Bufpool_exhausted
  | _ -> Mark t.marks.(i)

let no_text = ""

(* A slot's text is dropped when another event takes the slot, so an
   overwritten [Mark] neither leaks into the next event nor stays
   reachable. *)
let set_text t i ev =
  match ev with
  | Mark s ->
    if Array.length t.marks = 0 then t.marks <- Array.make t.cap no_text;
    t.marks.(i) <- s
  | _ -> if Array.length t.marks > 0 && t.marks.(i) != no_text then t.marks.(i) <- no_text

let record t ~at ~site ev =
  let i =
    if t.len < t.cap then begin
      let i = (t.start + t.len) mod t.cap in
      t.len <- t.len + 1;
      i
    end
    else begin
      let i = t.start in
      t.start <- (i + 1) mod t.cap;
      t.n_dropped <- t.n_dropped + 1;
      i
    end
  in
  t.ats.(i) <- Sim.Time.since_start_ns at;
  t.codes.(i) <- code ev;
  t.sites.(i) <- site;
  set_text t i ev;
  t.n_total <- t.n_total + 1

let entries t =
  List.init t.len (fun k ->
      let i = (t.start + k) mod t.cap in
      { at = Sim.Time.of_ns_since_start t.ats.(i); site = t.sites.(i); ev = event_at t i })

let length t = t.len
let total t = t.n_total
let dropped t = t.n_dropped

let clear t =
  t.marks <- [||];
  t.start <- 0;
  t.len <- 0;
  t.n_dropped <- 0;
  t.n_total <- 0

let event_label = function
  | Packet_tx _ -> "packet tx"
  | Packet_rx _ -> "packet rx"
  | Retransmit _ -> "retransmit"
  | Ack _ -> "ack"
  | Interrupt -> "interrupt"
  | Ipi -> "ipi"
  | Thread_wakeup -> "thread wakeup"
  | Bufpool_exhausted -> "bufpool exhausted"
  | Mark s -> s
