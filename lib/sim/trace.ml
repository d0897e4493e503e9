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

type t = {
  mutable on : bool;
  mutable recorded : span list; (* newest first *)
  mutable count : int;
  mutable capacity : int option;
  mutable n_dropped : int;
  mutable next_call : int;
}

let create ?capacity () =
  { on = false; recorded = []; count = 0; capacity; n_dropped = 0; next_call = 0 }

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

let frame_evictions _ = 0

let clear t =
  t.recorded <- [];
  t.count <- 0;
  t.n_dropped <- 0;
  t.next_call <- 0

let spans t = List.rev t.recorded
let length t = t.count
let dropped t = t.n_dropped
let duration s = Time.diff s.stop_at s.start_at
