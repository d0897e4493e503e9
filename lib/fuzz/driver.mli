(** The deterministic fuzz loop: corpus → mutation → oracle → shrink.

    A run is a pure function of [(seed, iters)]: the corpus, the
    mutation stream, the failure list and the rendered report are all
    byte-identical across runs — [firefly fuzz]'s replay contract.

    Iteration budget is spent in two phases: first a systematic
    truncation sweep (every prefix of every corpus entry), then stacked
    random mutations.  The first input to hit each (stage, property)
    failure class is shrunk to a minimized reproducer with
    {!Check.Shrinker.minimize_bytes}. *)

type failure_report = {
  f_stage : string;
  f_tag : string;
  f_message : string;  (** the first instance's message *)
  f_original_len : int;
  f_input : Stdlib.Bytes.t;  (** minimized *)
  f_count : int;  (** inputs that hit this (stage, property) class *)
}

type report = {
  r_seed : int;
  r_iters : int;
  r_corpus_size : int;
  r_executed : int;
  r_full_stack_ok : int;
  r_failures : failure_report list;  (** discovery order *)
}

val run : ?sweep:bool -> seed:int -> iters:int -> unit -> report
(** [sweep] (default true) enables the exhaustive truncation phase. *)

val canary : seed:int -> iters:int -> unit -> bool * report
(** Self-test: plants {!Net.Udp.canary_skip_length_check} (restored on
    exit), fuzzes, and returns whether the planted bug was rediscovered
    as an escaped exception.  A fuzzer that can't find a known
    trust-the-length decoder bug isn't testing anything. *)

val write_failures : dir:string -> report -> string list
(** Persist each minimized reproducer as a raw [.bin] corpus file
    (deterministic names), creating [dir] if missing; returns the
    paths. *)

val replay_dir : dir:string -> (string * Oracle.failure option) list
(** Replay every [*.bin] file in [dir], sorted by name; an absent
    directory is an empty corpus. *)

val to_string : report -> string
(** The deterministic human-readable report: counts, then each failure
    class with its minimized reproducer hexdump. *)
