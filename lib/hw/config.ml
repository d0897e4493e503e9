type interrupt_code = Original_modula2 | Final_modula2 | Assembly

type t = {
  cpus : int;
  cpu_speedup : float;
  ethernet_mbps : float;
  udp_checksums : bool;
  cut_through : bool;
  busy_wait : bool;
  interrupt_code : interrupt_code;
  traditional_demux : bool;
  redesigned_header : bool;
  raw_ethernet : bool;
  hand_runtime : bool;
  hand_stubs : bool;
  uniproc_fix : bool;
  streaming_results : bool;
  deqna_staging_frames : int;
  retransmit_after : Sim.Time.span;
}

let default =
  {
    cpus = 5;
    cpu_speedup = 1.0;
    ethernet_mbps = 10.0;
    udp_checksums = true;
    cut_through = false;
    busy_wait = false;
    interrupt_code = Assembly;
    traditional_demux = false;
    redesigned_header = false;
    raw_ethernet = false;
    hand_runtime = false;
    hand_stubs = false;
    uniproc_fix = false;
    streaming_results = false;
    deqna_staging_frames = 8;
    retransmit_after = Sim.Time.ms 600;
  }

let uniprocessor = { default with cpus = 1; uniproc_fix = true }

let validate t =
  if t.cpus < 1 then Error "cpus must be >= 1"
  else if not (Float.is_finite t.cpu_speedup && t.cpu_speedup > 0.) then
    Error "cpu_speedup must be finite and positive"
  else if not (Float.is_finite t.ethernet_mbps && t.ethernet_mbps > 0.) then
    Error "ethernet_mbps must be finite and positive"
  else if t.deqna_staging_frames < 1 then Error "deqna_staging_frames must be >= 1"
  else if Sim.Time.span_is_negative t.retransmit_after then Error "retransmit_after must be >= 0"
  else Ok t
