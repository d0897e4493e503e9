type 'a t = {
  eng : Engine.t;
  items : 'a Queue.t;
  readers : 'a Engine.waker Queue.t;
}

let create eng = { eng; items = Queue.create (); readers = Queue.create () }

let send t v =
  (* Deliver directly to the oldest live reader, else buffer. *)
  let rec deliver () =
    match Queue.take_opt t.readers with
    | None -> Queue.push v t.items
    | Some w -> if not (Engine.wake w v) then deliver ()
  in
  deliver ()

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Engine.suspend t.eng (fun w -> Queue.push w t.readers)

let recv_timeout t ~timeout =
  match Queue.take_opt t.items with
  | Some v -> Some v
  | None -> Engine.suspend_timeout t.eng ~timeout (fun w -> Queue.push w t.readers)

let length t = Queue.length t.items
let is_empty t = Queue.is_empty t.items
