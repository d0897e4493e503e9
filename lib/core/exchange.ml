module V = Wire.Bytebuf.View
module Time = Sim.Time
module Activity = Proto.Activity

type backoff = { multiplier : float; max_interval : Time.span }
type options = { retransmit_after : Time.span; max_retries : int; backoff : backoff option }

(* The interval after a silent one: fixed, or grown by the backoff
   multiplier up to its cap. *)
let next_interval opts cur =
  match opts.backoff with
  | None -> opts.retransmit_after
  | Some b ->
    if b.multiplier < 1. then invalid_arg "Exchange: backoff multiplier must be >= 1";
    let grown = Time.span_scale b.multiplier cur in
    if Time.span_compare grown b.max_interval > 0 then b.max_interval else grown

let fragment_count ~max_payload len = if len = 0 then 1 else (len + max_payload - 1) / max_payload

type frame = { hdr : Proto.header; payload : V.t }

type note =
  | Retransmit of int
  | Ack of int
  | Duplicate of int
  | Busy of int
  | Released of int
  | Transmit of { frames : int; acked : bool }

type 'peer output =
  | Send of 'peer * frame
  | Arm of Time.span
  | Note of note
  | Deliver of { payload : V.t; secured : bool }
  | Execute of frame
  | Retain
  | Give_up of string

(* Fragment [i] of [payload] is a window into it, never a copy — on the
   first send, on retransmission, and while retained. *)
let slice ~max_payload payload i =
  let len = Bytes.length payload in
  let pos = i * max_payload in
  V.of_bytes payload ~pos ~len:(if len = 0 then 0 else min max_payload (len - pos))

(* Every header the protocol sends: the call's identity (activity, seq,
   server space, interface, procedure) from [id], the rest stamped in.
   [data_len] and [checksum] are Frames.build's to fill. *)
let header ?(please_ack = false) ?(no_frag_ack = false) ?(secured = false) (id : Proto.header)
    ptype ~frag_idx ~frag_count =
  { id with Proto.ptype; please_ack; no_frag_ack; secured; frag_idx; frag_count; data_len = 0; checksum = 0 }

let bare hdr = { hdr; payload = V.empty }

module Collector = struct
  type t = { mutable slots : V.t option array; mutable secured : bool }

  let create () = { slots = [||]; secured = false }

  (* Trust nothing from the wire: an out-of-range index stored blindly
     once completed the count with a fragment missing; a count that
     disagrees with the first fragment's is a corrupted or forged
     retransmission.  Both are dropped so the genuine one completes. *)
  let offer c (h : Proto.header) payload =
    let n = h.Proto.frag_count and i = h.Proto.frag_idx in
    let count = Array.length c.slots in
    if n < 1 || i < 0 || i >= n || (count > 0 && count <> n) then false
    else begin
      if count = 0 then c.slots <- Array.make n None;
      if h.Proto.secured then c.secured <- true;
      if Option.is_none c.slots.(i) then c.slots.(i) <- Some payload;
      true
    end

  (* Once every fragment is in, one fragment is handed over as is (no
     copy); several are copied once, each into its place in a buffer of
     exactly their summed length. *)
  let payload c =
    if Array.length c.slots = 0 || not (Array.for_all Option.is_some c.slots) then None
    else
      match c.slots with
      | [| only |] -> only
      | slots ->
        let frags = Array.map Option.get slots in
        let buf = Bytes.create (Array.fold_left (fun n v -> n + V.length v) 0 frags) in
        ignore
          (Array.fold_left
             (fun pos v ->
               V.blit v ~dst:buf ~dst_pos:pos;
               pos + V.length v)
             0 frags);
        Some (V.of_bytes buf)
end

module Caller = struct
  type 'peer t = {
    opts : options;
    peer : 'peer;
    call : Proto.header;
    payload : Bytes.t;
    max_payload : int;
    frags : int;
    mutable frag : int;  (** in flight: awaiting its ack, or the result once it is the last *)
    mutable misses : int;  (** silent periods in a row *)
    mutable interval : Time.span;
    result : Collector.t;
  }

  let fragment ?please_ack c i =
    let secured = c.call.Proto.secured in
    let hdr = header ?please_ack ~secured c.call Proto.Call ~frag_idx:i ~frag_count:c.frags in
    Send (c.peer, { hdr; payload = slice ~max_payload:c.max_payload c.payload i })

  let start opts ~max_payload ~peer ~activity ~seq ~server_space ~interface_id ~proc_idx ~secured
      payload =
    let call =
      { Proto.ptype = Proto.Call; please_ack = false; no_frag_ack = false; secured; activity; seq;
        server_space; interface_id; proc_idx; frag_idx = 0; frag_count = 1; data_len = 0;
        checksum = 0 }
    in
    let frags = fragment_count ~max_payload (Bytes.length payload) in
    let c =
      { opts; peer; call; payload; max_payload; frags; frag = 0; misses = 0;
        interval = opts.retransmit_after; result = Collector.create () }
    in
    (c, [ fragment c 0; Arm c.interval ])

  (* The server is alive: a fresh retry budget and interval. *)
  let progress c =
    c.misses <- 0;
    c.interval <- c.opts.retransmit_after;
    Arm c.interval

  let awaiting_result c = c.frag = c.frags - 1

  let input c { hdr = h; payload } =
    if h.Proto.seq <> c.call.Proto.seq || not (Activity.equal h.Proto.activity c.call.Proto.activity)
    then []
    else
      match h.Proto.ptype with
      | Proto.Error_reply -> [ Give_up ("server: " ^ V.to_string payload) ]
      | Proto.Busy -> [ progress c ]
      | Proto.Ack when awaiting_result c -> [ progress c ]
      | Proto.Ack ->
        if h.Proto.frag_idx <> c.frag then []
        else begin
          c.frag <- c.frag + 1;
          let next = fragment c c.frag in
          [ next; progress c ]
        end
      | Proto.Result when awaiting_result c && Collector.offer c.result h payload ->
        (* Stop-and-wait result fragments are acknowledged, all but the
           last; streamed ones (no_frag_ack) never are. *)
        let ack =
          if h.Proto.no_frag_ack || h.Proto.frag_idx >= h.Proto.frag_count - 1 then []
          else
            let ack =
              header ~secured:h.Proto.secured h Proto.Ack ~frag_idx:h.Proto.frag_idx
                ~frag_count:h.Proto.frag_count
            in
            [ Note (Ack h.Proto.seq); Send (c.peer, bare ack) ]
        in
        let last =
          match Collector.payload c.result with
          | Some whole -> Deliver { payload = whole; secured = c.result.Collector.secured }
          | None -> progress c
        in
        ack @ [ last ]
      | Proto.Result | Proto.Call -> []

  let expire c =
    c.misses <- c.misses + 1;
    if c.misses > c.opts.max_retries then [ Give_up "no response from server" ]
    else begin
      let resend = fragment ~please_ack:true c c.frag in
      c.interval <- next_interval c.opts c.interval;
      [ Note (Retransmit c.call.Proto.seq); resend; Arm c.interval ]
    end
end

module Server = struct
  module Table = Hashtbl.Make (Activity)

  type phase = Collecting | Sending | Idle  (** executing, or over *)

  (* Per-activity state (§3.2: "in the case of a server thread it is the
     last result packet"). *)
  type 'peer record = {
    mutable last_seq : int;  (** the last completed call, whose result is retained *)
    mutable working : bool;
    mutable cur_seq : int;  (** the call in progress *)
    mutable retained : ('peer * frame array) option;
    mutable generation : int;  (** bumps make a pending reclaim stale *)
    mutable listening : 'peer transfer option;  (** collecting or awaiting acks *)
  }

  and 'peer transfer = {
    srv : 'peer t;
    rcd : 'peer record;
    peer : 'peer;
    call : Proto.header;  (** the first fragment's *)
    parts : Collector.t;
    mutable phase : phase;
    mutable misses : int;
    mutable frames : frame array;  (** the result, once replying *)
    mutable next : int;  (** the result frame awaiting its ack *)
    mutable kept : int;  (** the generation at which the result was retained *)
  }

  and 'peer t = { opts : options; max_payload : int; streaming : bool; acts : 'peer record Table.t }

  let create opts ~max_payload ~streaming = { opts; max_payload; streaming; acts = Table.create 32 }

  let activities srv = Table.length srv.acts

  let record srv act =
    match Table.find_opt srv.acts act with
    | Some r -> r
    | None ->
      let r =
        { last_seq = 0; working = false; cur_seq = 0; retained = None; generation = 0;
          listening = None }
      in
      Table.replace srv.acts act r;
      r

  let listen tr = tr.rcd.listening <- Some tr

  let unlisten tr =
    match tr.rcd.listening with
    | Some l when l == tr -> tr.rcd.listening <- None
    | Some _ | None -> ()

  let finish tr =
    tr.phase <- Idle;
    unlisten tr

  let release r =
    match r.retained with
    | None -> 0
    | Some (_, frames) ->
      r.retained <- None;
      Array.length frames

  let resend r =
    match r.retained with
    | Some (peer, frames) ->
      Note (Duplicate r.last_seq) :: Array.to_list (Array.map (fun f -> Send (peer, f)) frames)
    | None -> []

  let rearm tr = Arm tr.srv.opts.retransmit_after

  (* After an accepted call fragment: acknowledge it unless it is the
     last (covering lost acks on duplicates), then execute once every
     fragment is in. *)
  let collected tr (h : Proto.header) =
    let n = h.Proto.frag_count in
    let ack =
      if h.Proto.frag_idx >= n - 1 then []
      else
        let ack = header tr.call Proto.Ack ~frag_idx:h.Proto.frag_idx ~frag_count:n in
        [ Note (Ack tr.call.Proto.seq); Send (tr.peer, bare ack) ]
    in
    match Collector.payload tr.parts with
    | Some whole ->
      finish tr;
      ack @ [ Execute { hdr = tr.call; payload = whole } ]
    | None ->
      tr.misses <- 0;
      listen tr;
      ack @ [ rearm tr ]

  let call srv ~from { hdr = h; payload } =
    if h.Proto.ptype <> Proto.Call then (None, [])
    else begin
      let r = record srv h.Proto.activity in
      let seq = h.Proto.seq in
      if seq = r.last_seq && seq > 0 then (None, resend r)
      else if r.working && seq = r.cur_seq then begin
        (* A duplicate of the call still executing. *)
        let busy = bare (header h Proto.Busy ~frag_idx:h.Proto.frag_idx ~frag_count:h.Proto.frag_count) in
        (None, Note (Busy seq) :: (if h.Proto.please_ack then [ Send (from, busy) ] else []))
      end
      else if seq < r.cur_seq || h.Proto.frag_idx <> 0 then
        (* Older than the call last started (its caller moved on), or a
           stray later fragment: drop. *)
        (None, [])
      else begin
        (* A new call: the retained previous result is implicitly
           acknowledged (§3.2). *)
        r.generation <- r.generation + 1;
        let released = release r in
        r.working <- true;
        r.cur_seq <- seq;
        let tr =
          { srv; rcd = r; peer = from; call = h; parts = Collector.create (); phase = Collecting;
            misses = 0; frames = [||]; next = 0; kept = 0 }
        in
        let freed = if released > 0 then [ Note (Released released) ] else [] in
        if Collector.offer tr.parts h payload then (Some tr, freed @ collected tr h)
        else begin
          (* a malformed first fragment: drop the call *)
          r.working <- false;
          finish tr;
          (None, freed)
        end
      end
    end

  let retain tr =
    let r = tr.rcd in
    r.retained <- Some (tr.peer, tr.frames);
    r.last_seq <- tr.call.Proto.seq;
    r.working <- false;
    r.generation <- r.generation + 1;
    tr.kept <- r.generation;
    finish tr;
    [ Retain ]

  let result_frame tr i = Send (tr.peer, tr.frames.(i))

  let input tr { hdr = h; payload } =
    if h.Proto.seq <> tr.call.Proto.seq || not (Activity.equal h.Proto.activity tr.call.Proto.activity) then
      []
    else
      match (tr.phase, h.Proto.ptype) with
      | Collecting, Proto.Call -> if Collector.offer tr.parts h payload then collected tr h else []
      | Sending, Proto.Ack when h.Proto.frag_idx = tr.next ->
        tr.next <- tr.next + 1;
        tr.misses <- 0;
        let send = result_frame tr tr.next in
        if tr.next < Array.length tr.frames - 1 then [ send; rearm tr ] else send :: retain tr
      | Sending, Proto.Call when h.Proto.please_ack ->
        (* The caller has nothing yet: resend at once. *)
        [ result_frame tr tr.next; rearm tr ]
      | (Collecting | Sending | Idle), _ -> []

  let receive srv ~from f =
    match Table.find_opt srv.acts f.hdr.Proto.activity with
    | Some { listening = Some tr; _ } -> (Some tr, input tr f)
    | Some _ | None -> call srv ~from f

  let expire tr =
    tr.misses <- tr.misses + 1;
    let silent = tr.misses > tr.srv.opts.max_retries in
    match tr.phase with
    | Collecting when silent ->
      tr.rcd.working <- false;
      finish tr;
      [ Give_up "the caller went silent mid-call" ]
    | Collecting -> [ rearm tr ]
    (* An abandoned transfer still becomes the retained result: the
       caller's next retransmission receives it rather than executing
       the call a second time. *)
    | Sending when silent -> retain tr
    | Sending -> [ result_frame tr tr.next; rearm tr ]
    | Idle -> []

  let reply tr outcome =
    if tr.rcd.cur_seq <> tr.call.Proto.seq then begin
      finish tr;
      [ Give_up "superseded by a newer call" ]
    end
    else begin
      let ptype, payload, secured =
        match outcome with
        | Ok (payload, secured) -> (Proto.Result, payload, secured)
        | Error msg -> (Proto.Error_reply, Bytes.of_string msg, false)
      in
      let m = tr.srv.max_payload in
      let n = fragment_count ~max_payload:m (Bytes.length payload) in
      tr.frames <-
        Array.init n (fun i ->
            let hdr = header ~no_frag_ack:tr.srv.streaming ~secured tr.call ptype ~frag_idx:i ~frag_count:n in
            { hdr; payload = slice ~max_payload:m payload i });
      tr.next <- 0;
      tr.misses <- 0;
      let acked = n > 1 && not tr.srv.streaming in
      let begins = Note (Transmit { frames = n; acked }) in
      if acked then begin
        tr.phase <- Sending;
        listen tr;
        [ begins; result_frame tr 0; rearm tr ]
      end
      else (begins :: List.init n (result_frame tr)) @ retain tr
    end

  let abort tr =
    tr.rcd.working <- false;
    finish tr

  (* The closure holds the activity record alone, not the transfer: a
     reclaim stays pending for seconds after the call is gone. *)
  let reclaim tr =
    let r = tr.rcd and kept = tr.kept in
    fun () -> if r.generation = kept && not r.working then release r else 0
end
