(** A fixed pool of worker domains for independent simulation tasks.

    Tasks must be self-contained: each builds its own engine, RNG and
    machines, and shares no mutable state with its siblings.  Results
    come back in input order regardless of which domain ran which task,
    so a parallel sweep renders byte-identically to a serial one.

    With [jobs = 1] (the default) no domain is spawned and the tasks
    run as a plain serial [List.map] on the calling domain, so callers
    need no serial copy of their loop. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs] defaults to. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f tasks] applies [f] to every task, running up to
    [jobs] at once ([jobs] counts the calling domain, which
    participates).  If any task raises, the exception of the
    lowest-indexed failing task is re-raised on the caller with its
    original backtrace — deterministic even when several fail.
    @raise Invalid_argument if [jobs < 1]. *)
