type 'a t = { eng : Engine.t; q : 'a Engine.waker Queue.t }

let create eng = { eng; q = Queue.create () }
let await t = Engine.suspend t.eng (fun w -> Queue.push w t.q)

let await_timeout t ~timeout =
  Engine.suspend_timeout t.eng ~timeout (fun w -> Queue.push w t.q)

(* Timed-out waiters stay in the queue as dead wakers; signal and
   broadcast discard them as they pass, so the queue stays bounded by
   the waiter arrival rate between wakeups. *)
let rec signal t v =
  match Queue.take_opt t.q with
  | None -> false
  | Some w -> Engine.wake w v || signal t v

let broadcast t v =
  let rec loop n =
    match Queue.take_opt t.q with
    | None -> n
    | Some w -> loop (if Engine.wake w v then n + 1 else n)
  in
  loop 0
