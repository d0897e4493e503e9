type t = { mutable opened : bool; cv : unit Condvar.t }

let create eng = { opened = false; cv = Condvar.create eng }

let open_ t =
  if not t.opened then begin
    t.opened <- true;
    ignore (Condvar.broadcast t.cv ())
  end

let wait t = if not t.opened then Condvar.await t.cv
let is_open t = t.opened
