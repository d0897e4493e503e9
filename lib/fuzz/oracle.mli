(** The wire-surface test oracle: three properties on every input.

    Every input — however malformed — is pushed through each decoder
    layer ([Ethernet]/[Ipv4]/[Udp]/[Proto]) and through the full
    [Frames.parse] stack under all four wire regimes, checking:

    + {b totality} — no exception escapes any decoder;
    + {b accept implies re-encode round-trips} — an accepted header,
      re-encoded, decodes to the identical header (byte-exact for the
      lossless Ethernet codec);
    + {b zero-copy equals copying} — decoding through a
      [Reader.of_view] window embedded mid-buffer agrees with
      [Reader.of_bytes] over a private copy, down to identical [Error]
      strings.

    Accepted full-stack parses are optionally fed to the runtime's own
    fragment collector ({!Rpc.Exchange.Collector}), which must stay
    total — the stage where the pre-hardening runtime died on
    [Not_found]. *)

type kind =
  | Exception_escaped of string
  | Roundtrip_broken of string
  | Differential of string

type failure = { stage : string; kind : kind }

val kind_tag : kind -> string
(** ["exception"], ["roundtrip"] or ["differential"]. *)

val kind_message : kind -> string

val key : failure -> string
(** Stage + property, message excluded: the identity used to dedupe
    failures and to decide whether a shrunk input still reproduces. *)

val to_string : failure -> string

type reassembly
(** Fragment state carried across inputs: the runtime's own collector
    ({!Rpc.Exchange.Collector}) for the current (activity, seq, count). *)

val reassembly : unit -> reassembly

type outcome = {
  failure : failure option;  (** the first property violation, if any *)
  full_stack_ok : bool;  (** some regime's [Frames.parse] accepted *)
}

val run : ?reasm:reassembly -> Stdlib.Bytes.t -> outcome
(** Deterministic; [reasm] carries fragment state across inputs and is
    omitted when replaying or shrinking a single input. *)
