type kind = Service | Queue

type span = {
  cat : string;
  label : string;
  site : string;
  track : string;
  start_at : Time.t;
  stop_at : Time.t;
  kind : kind;
  call : int;
}

let no_call = -1

(* One frame-registry slot: a physical buffer currently carrying a
   traced call.  [None] marks a free slot. *)
type frame_slot = { mutable fs_frame : Bytes.t option; mutable fs_call : int }

type t = {
  mutable on : bool;
  mutable recorded : span list; (* newest first *)
  mutable count : int;
  mutable capacity : int option;
  mutable n_dropped : int;
  mutable next_call : int;
  frames : frame_slot array;
  mutable frame_cursor : int; (* round-robin eviction position *)
  mutable frame_evictions : int;
}

(* The frame registry only ever holds the frames of calls currently in
   flight; a traced window runs a handful of sequential calls, so a
   small fixed ring suffices and keeps the physical-identity scan cheap.
   Registration is O(bound) worst case with no allocation (the old list
   representation paid an O(n) [List.length] plus a rebuilt list per
   call), and evictions — which silently strip an in-flight call of its
   id and degrade attribution — are counted in {!frame_evictions}. *)
let frame_registry_bound = 64

let create ?capacity () =
  {
    on = false;
    recorded = [];
    count = 0;
    capacity;
    n_dropped = 0;
    next_call = 0;
    frames = Array.init frame_registry_bound (fun _ -> { fs_frame = None; fs_call = no_call });
    frame_cursor = 0;
    frame_evictions = 0;
  }

let enabled t = t.on
let set_enabled t b = t.on <- b
let set_capacity t c = t.capacity <- c

let add ?(track = "") ?(kind = Service) ?(call = no_call) t ~cat ~label ~site ~start_at
    ~stop_at =
  if t.on then
    match t.capacity with
    | Some cap when t.count >= cap -> t.n_dropped <- t.n_dropped + 1
    | _ ->
      t.recorded <- { cat; label; site; track; start_at; stop_at; kind; call } :: t.recorded;
      t.count <- t.count + 1

let new_call t =
  if not t.on then no_call
  else begin
    let id = t.next_call in
    t.next_call <- id + 1;
    id
  end

let slot_of t frame =
  let n = Array.length t.frames in
  let rec find i =
    if i >= n then None
    else
      let s = t.frames.(i) in
      match s.fs_frame with
      | Some f when f == frame -> Some s
      | _ -> find (i + 1)
  in
  find 0

let release_slot s =
  s.fs_frame <- None;
  s.fs_call <- no_call

let register_frame t frame ~call =
  if t.on then
    match slot_of t frame with
    | Some s ->
      (* The buffer is already registered.  Overwrite in place — newest
         registration wins — or, when the new send carries no traced
         call, drop the stale entry: a recycled buffer must never keep
         aliasing the call it belonged to in a previous life. *)
      if call >= 0 then s.fs_call <- call else release_slot s
    | None ->
      if call >= 0 then begin
        let n = Array.length t.frames in
        let rec free i = if i >= n then None else
          let s = t.frames.(i) in
          if s.fs_frame = None then Some s else free (i + 1)
        in
        let s =
          match free 0 with
          | Some s -> s
          | None ->
            (* Full: evict round-robin (≈ oldest) and count it — a
               still-in-flight call just lost its id. *)
            let s = t.frames.(t.frame_cursor) in
            t.frame_cursor <- (t.frame_cursor + 1) mod n;
            t.frame_evictions <- t.frame_evictions + 1;
            s
        in
        s.fs_frame <- Some frame;
        s.fs_call <- call
      end

let release_frame t frame =
  if t.on then
    match slot_of t frame with
    | Some s -> release_slot s
    | None -> ()

let frame_call t frame =
  if not t.on then no_call
  else
    match slot_of t frame with
    | Some s -> s.fs_call
    | None -> no_call

let frame_evictions t = t.frame_evictions

let clear t =
  t.recorded <- [];
  t.count <- 0;
  t.n_dropped <- 0;
  t.next_call <- 0;
  Array.iter release_slot t.frames;
  t.frame_cursor <- 0;
  t.frame_evictions <- 0

let spans t = List.rev t.recorded
let length t = t.count
let dropped t = t.n_dropped
let duration s = Time.diff s.stop_at s.start_at
