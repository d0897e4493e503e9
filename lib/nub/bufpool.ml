type t = {
  cap : int;
  mutable avail : int;
  mutable failed : int;
  on_exhausted : unit -> unit;
}

let create ?(on_exhausted = ignore) ~capacity () =
  if capacity < 1 then invalid_arg "Bufpool.create: capacity must be positive";
  { cap = capacity; avail = capacity; failed = 0; on_exhausted }

let capacity t = t.cap
let available t = t.avail

let try_alloc t =
  if t.avail > 0 then begin
    t.avail <- t.avail - 1;
    true
  end
  else begin
    t.failed <- t.failed + 1;
    t.on_exhausted ();
    false
  end

let free t =
  if t.avail >= t.cap then invalid_arg "Bufpool.free: double free";
  t.avail <- t.avail + 1

let in_use t = t.cap - t.avail
let exhaustions t = t.failed
