type t = { metrics : Metrics.Registry.t; journal : Journal.t }

let create () = { metrics = Metrics.Registry.create (); journal = Journal.create () }

let record t ~at ~site ev = Journal.record t.journal ~at ~site ev
