(** Configuration of one simulated Firefly and its RPC software.

    {!default} reproduces the machine the paper measured: 5 MicroVAX II
    CPUs (~1 MIPS), a 16 Mbit/s QBus, a DEQNA with no QBus/Ethernet
    overlap, a 10 Mbit/s Ethernet, software UDP checksums, the
    assembly-language interrupt path, and automatically generated stubs.
    Every "improvement" the paper speculates about in §4.2 — and the
    degraded variants of §4.1 and §5 — is one field away. *)

(** The three versions of the Ethernet-interrupt main path measured in
    Table IX. *)
type interrupt_code =
  | Original_modula2  (** 758 µs *)
  | Final_modula2  (** 547 µs *)
  | Assembly  (** 177 µs — the installed system *)

type t = {
  cpus : int;
      (** processors available to the scheduler on this machine (paper
          §5 varies this 1–5). *)
  cpu_speedup : float;
      (** multiplier on MicroVAX II speed; all software costs divide by
          this (§4.2.3 considers 3.0). *)
  ethernet_mbps : float;  (** network bit rate (§4.2.2 considers 100). *)
  udp_checksums : bool;  (** software end-to-end checksums (§4.2.4). *)
  cut_through : bool;
      (** controller overlaps QBus transfer with Ethernet transfer
          (§4.2.1's "different network controller"). *)
  busy_wait : bool;
      (** caller/server threads spin for packets instead of blocking,
          eliminating the two scheduler wakeups (§4.2.7). *)
  interrupt_code : interrupt_code;
  traditional_demux : bool;
      (** ablation of §3.2's key design choice: instead of
          demultiplexing RPC packets in the interrupt routine and waking
          the RPC thread directly, the interrupt wakes a datalink thread
          which demultiplexes — "the traditional approach ... doubles
          the number of wakeups required for an RPC". *)
  redesigned_header : bool;
      (** easier-to-parse RPC header + better hash: ~200 µs per RPC
          (§4.2.5). *)
  raw_ethernet : bool;
      (** RPC directly on Ethernet datagrams, no IP/UDP headers; saves
          ~100 µs per RPC and 28 bytes per packet (§4.2.6). *)
  hand_runtime : bool;
      (** RPC runtime routines (not stubs) recoded in machine code: the
          422 µs of Table VII runtime divides by 3 (§4.2.8). *)
  hand_stubs : bool;
      (** the RPC Exerciser's hand-produced stubs: no marshalling,
          tighter calling sequences; 140 µs faster on Null(), ~600 µs on
          MaxResult(b) (§5). *)
  uniproc_fix : bool;
      (** the "swapped lines" of §5: costs ~100 µs of multiprocessor
          latency but removes the uniprocessor lost-packet bug. *)
  streaming_results : bool;
      (** §5's speculation, implemented: multi-packet results are
          blasted back-to-back (Amoeba/V/Sprite style) instead of
          stop-and-wait acknowledged fragment by fragment. *)
  deqna_staging_frames : int;
      (** internal controller packet RAM, in frames: a frame arriving
          while the staging RAM is full is lost (receiver overrun).
          Sized so the paper's closed-loop RPC workload runs loss-free,
          as the real system did. *)
}

val default : t

val uniprocessor : t
(** [default] with a single CPU and the §5 fix applied. *)

val validate : t -> (t, string) result
(** Rejects nonsensical values (zero CPUs, rates that are not finite
    and positive...). *)
