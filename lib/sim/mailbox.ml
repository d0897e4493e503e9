type 'a t = {
  eng : Engine.t;
  items : 'a Queue.t;
  readers : 'a Engine.waker Queue.t;
}

let create eng = { eng; items = Queue.create (); readers = Queue.create () }

(* Deliver directly to the oldest reader, else buffer.  Only [send]
   wakes a reader, so every queued one is still waiting. *)
let send t v =
  match Queue.take_opt t.readers with
  | None -> Queue.push v t.items
  | Some w -> ignore (Engine.wake w v : bool)

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Engine.suspend t.eng (fun w -> Queue.push w t.readers)

let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items
