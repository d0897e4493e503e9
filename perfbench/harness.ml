(* What [Bench] needs from a workload: its procedure
   classes (the latency split), one complete set-up (build, bind, warm
   up — replacing any live state), sample [k] of a run, the frames and
   argument shapes its kernels see, and teardown. *)
type workload = {
  classes : string array;
  setup : unit -> unit;
  sample : traced:bool -> int -> Common.sample;
  kernel_input : unit -> Arms.kernel_input;
  teardown : unit -> unit;
}
