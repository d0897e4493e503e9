module Engine = Sim.Engine
module Time = Sim.Time
module Config = Hw.Config
module Timing = Hw.Timing
module Cpu_set = Hw.Cpu_set

type t = {
  eng : Engine.t;
  m_name : string;
  cfg : Config.t;
  tmg : Timing.t;
  m_cpus : Cpu_set.t;
  m_pool : Bufpool.t;
  deqna : Hw.Deqna.t;
  m_driver : Driver.t;
  link : Hw.Ether_link.t;
  m_ip : Net.Ipv4.Addr.t;
  m_obs : Obs.Ctx.t;
  mutable idle_started : bool;
  mutable attached : bool;
}

let create ?obs eng ~name ~config ~link ~station ~ip ?(pool_buffers = 64) () =
  let config =
    match Config.validate config with
    | Ok c -> c
    | Error e -> invalid_arg ("Machine.create: " ^ e)
  in
  let m_obs = match obs with Some o -> o | None -> Obs.Ctx.create () in
  let tmg = Timing.create config in
  let m_cpus = Cpu_set.create ~obs:m_obs eng ~site:name ~cpus:config.Config.cpus in
  let m_pool =
    Bufpool.create
      ~on_exhausted:(fun () ->
        Obs.Ctx.record m_obs ~at:(Engine.now eng) ~site:name Obs.Journal.Bufpool_exhausted)
      ~capacity:pool_buffers ()
  in
  let qbus = Sim.Resource.create eng in
  let deqna =
    Hw.Deqna.create eng tmg ~link ~qbus ~mac:(Net.Mac.of_station station) ~site:name ~obs:m_obs ()
  in
  let m_driver = Driver.create ~obs:m_obs eng tmg ~cpus:m_cpus ~deqna ~pool:m_pool in
  let reg = m_obs.Obs.Ctx.metrics in
  Obs.Metrics.Registry.register_counter_fn reg ~site:name ~name:"bufpool.exhaustions" (fun () ->
      Bufpool.exhaustions m_pool);
  Obs.Metrics.Registry.register_probe reg ~site:name ~name:"bufpool.available" (fun () ->
      float_of_int (Bufpool.available m_pool));
  Obs.Metrics.Registry.register_probe reg ~site:name ~name:"bufpool.in_use" (fun () ->
      float_of_int (Bufpool.in_use m_pool));
  Obs.Metrics.Registry.register_probe reg ~site:name ~name:"qbus.utilization" (fun () ->
      Sim.Resource.utilization qbus ~upto:(Engine.now eng));
  Driver.start m_driver ~rx_buffers:16;
  {
    eng;
    m_name = name;
    cfg = config;
    tmg;
    m_cpus;
    m_pool;
    deqna;
    m_driver;
    link;
    m_ip = ip;
    m_obs;
    idle_started = false;
    attached = true;
  }

let name t = t.m_name
let engine t = t.eng
let config t = t.cfg
let timing t = t.tmg
let cpus t = t.m_cpus
let driver t = t.m_driver
let pool t = t.m_pool
let mac t = Hw.Deqna.mac t.deqna
let ip t = t.m_ip
let link t = t.link
let obs t = t.m_obs
let new_waiter t = Waiter.create ~obs:t.m_obs t.eng t.tmg ~cpus:t.m_cpus

let spawn_thread t ?name fn =
  let name = Option.value name ~default:(t.m_name ^ "-thread") in
  Engine.spawn t.eng ~name fn

let power_off t =
  if t.attached then begin
    Hw.Deqna.detach_from_link t.deqna;
    t.attached <- false
  end

let power_on t =
  if not t.attached then begin
    Hw.Deqna.reattach_to_link t.deqna;
    t.attached <- true
  end

let restart t ~down_for =
  if Time.span_is_negative down_for then invalid_arg "Machine.restart: negative downtime";
  power_off t;
  Engine.schedule t.eng ~after:down_for (fun () -> power_on t)

let average_busy_cpus t ~upto = Cpu_set.average_busy t.m_cpus ~upto

(* Background load: one thread per machine alternating a CPU burst with
   an exponentially distributed idle gap, tuned to average 0.15
   processors, what the paper's idle machines drew (§2.1). *)
let start_idle_load t =
  if not t.idle_started then begin
    t.idle_started <- true;
    let burst_us = 150. in
    let gap_mean_us = burst_us *. ((1. /. 0.15) -. 1.) in
    spawn_thread t ~name:(t.m_name ^ "-idle") (fun () ->
        let rng = Engine.rng t.eng in
        let rec loop () =
          Cpu_set.with_cpu t.m_cpus (fun ctx ->
              Cpu_set.charge ctx ~cat:"background" ~label:"idle load" (Time.us_f burst_us));
          Engine.delay t.eng (Time.us_f (Sim.Rng.exponential rng ~mean:gap_mean_us));
          loop ()
        in
        loop ())
  end
