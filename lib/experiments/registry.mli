(** The experiment registry: every reproduced table/figure, addressable
    by id from the CLI ([firefly repro]) and the test suite. *)

type transport = [ `Auto | `Local | `Decnet ]
(** The bind-time transport the workload-driving experiments should
    measure over (see {!Workload.World.test_binding}). *)

type entry = {
  id : string;
  title : string;
  run : transport:transport -> quick:bool -> metrics:bool -> Report.Table.t list;
      (** Calls the one builder of this id's tables, which measures
          only what those tables need, in fresh worlds: no entry reruns
          another's sweep or shares state with it, so entries may run
          in any order or in parallel.  [quick] trades call counts for
          speed; a full [firefly repro] runs with [quick:false].
          [metrics] asks an experiment for extra percentile columns
          where it supports them (currently Table I); others ignore
          it.  [transport] re-targets the workload-driving experiments
          (currently Table I); experiments that measure a fixed
          configuration ignore it. *)
}

val all : entry list
val find : string -> entry option
val ids : unit -> string list
