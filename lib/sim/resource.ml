type priority = High | Normal

type t = {
  eng : Engine.t;
  res_name : string;
  cap : int;
  mutable busy : int;
  hi : unit Engine.waker Queue.t;
  lo : unit Engine.waker Queue.t;
  level : Stats.Level.t;
}

let create eng ~name ~capacity =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  {
    eng;
    res_name = name;
    cap = capacity;
    busy = 0;
    hi = Queue.create ();
    lo = Queue.create ();
    level = Stats.Level.create ~initial:0. ~at:(Engine.now eng);
  }

let name t = t.res_name
let capacity t = t.cap

let set_busy t n =
  t.busy <- n;
  Stats.Level.set t.level (float_of_int n) ~at:(Engine.now t.eng)

let acquire ?(priority = Normal) t =
  if t.busy < t.cap then set_busy t (t.busy + 1)
  else
    let q =
      match priority with
      | High -> t.hi
      | Normal -> t.lo
    in
    Engine.suspend t.eng (fun w -> Queue.push w q)

(* On release, hand the server to the oldest live high-priority waiter,
   else normal-priority; occupancy is unchanged during a handoff. *)
let release t =
  if t.busy <= 0 then invalid_arg "Resource.release: not acquired";
  let rec hand_off q fallback =
    match Queue.take_opt q with
    | Some w -> if Engine.wake w () then `Handed else hand_off q fallback
    | None -> (
      match fallback with
      | Some q' -> hand_off q' None
      | None -> `Free)
  in
  match hand_off t.hi (Some t.lo) with
  | `Handed -> ()
  | `Free -> set_busy t (t.busy - 1)

let use ?priority t d =
  acquire ?priority t;
  Fun.protect ~finally:(fun () -> release t) (fun () -> Engine.delay t.eng d)

let in_use t = t.busy

let utilization t ~upto =
  let avg = Stats.Level.average t.level ~upto in
  avg /. float_of_int t.cap
