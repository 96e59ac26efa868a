type mp_class = Uma | Numa | Norma

let class_to_string = function Uma -> "UMA" | Numa -> "NUMA" | Norma -> "NORMA"

type params = {
  model : string;
  mp_class : mp_class;
  cpus : int;
  local_access_us : float;
  remote_access_us : float option;
  page_copy_us : float;
  map_op_us : float;
  fault_base_us : float;
  msg_overhead_us : float;
  context_switch_us : float;
  quantum_us : float;
  net_latency_us : float;
  net_us_per_byte : float;
  pageout_backoff_us : float;
  handoff : bool;
}

(* Common 1987-era software constants: a local Mach message exchange cost
   on the order of 100 us; a page copy a few hundred; a pmap update tens. *)
let base =
  {
    model = "generic";
    mp_class = Uma;
    cpus = 1;
    local_access_us = 0.5;
    remote_access_us = Some 0.8;
    page_copy_us = 400.0;
    map_op_us = 25.0;
    fault_base_us = 150.0;
    msg_overhead_us = 115.0;
    context_switch_us = 80.0;
    quantum_us = 10_000.0;
    net_latency_us = 5000.0;
    net_us_per_byte = 0.8;
    pageout_backoff_us = 50.0;
    handoff = true;
  }

let multimax =
  { base with model = "Encore MultiMax"; cpus = 16; local_access_us = 0.5; remote_access_us = Some 0.8 }

let butterfly =
  {
    base with
    model = "BBN Butterfly";
    mp_class = Numa;
    cpus = 64;
    local_access_us = 0.5;
    remote_access_us = Some 5.0;
    net_latency_us = 1000.0;
  }

let hypercube =
  {
    base with
    model = "Intel HyperCube";
    mp_class = Norma;
    cpus = 32;
    local_access_us = 0.5;
    remote_access_us = None;
    net_latency_us = 300.0;
    net_us_per_byte = 0.8;
  }

let uniprocessor = { base with model = "VAX 11/780"; cpus = 1 }

let custom ?cpus ?local_access_us ?context_switch_us ?quantum_us ?net_latency_us
    ?net_us_per_byte mp_class =
  let start =
    match mp_class with Uma -> multimax | Numa -> butterfly | Norma -> hypercube
  in
  let get dflt = function Some v -> v | None -> dflt in
  {
    start with
    cpus = get start.cpus cpus;
    local_access_us = get start.local_access_us local_access_us;
    context_switch_us = get start.context_switch_us context_switch_us;
    quantum_us = get start.quantum_us quantum_us;
    net_latency_us = get start.net_latency_us net_latency_us;
    net_us_per_byte = get start.net_us_per_byte net_us_per_byte;
  }

let access_us p ~remote ~words =
  if not remote then float_of_int words *. p.local_access_us
  else
    match p.remote_access_us with
    | Some c -> float_of_int words *. c
    | None -> invalid_arg "Machine.access_us: NORMA machines have no remote memory access"
