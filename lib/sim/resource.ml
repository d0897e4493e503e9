type t = {
  eng : Engine.t;
  mutable held : bool;
  waiters : unit Condvar.t;
  level : Stats.Level.t;
}

let create eng =
  {
    eng;
    held = false;
    waiters = Condvar.create eng;
    level = Stats.Level.create ~initial:0. ~at:(Engine.now eng);
  }

let set_held t held =
  t.held <- held;
  Stats.Level.set t.level (if held then 1. else 0.) ~at:(Engine.now t.eng)

let acquire t = if t.held then Condvar.await t.waiters else set_held t true

(* A handoff keeps the device held, so the level does not move. *)
let release t =
  if not t.held then invalid_arg "Resource.release: not acquired";
  if not (Condvar.signal t.waiters ()) then set_held t false

let utilization t ~upto = Stats.Level.average t.level ~upto
