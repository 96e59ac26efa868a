(** Machine models: the §7 multiprocessor taxonomy.

    A [params] record captures the latency constants of a machine class.
    The presets are calibrated to the paper's numbers: remote access on a
    MultiMax-class UMA averages "considerably less than one microsecond",
    a Butterfly-class NUMA pays roughly 10x its local access time
    (~5 µs), and a HyperCube-class NORMA communicates in hundreds of
    microseconds with no remote memory access at all. *)

type mp_class = Uma | Numa | Norma

val class_to_string : mp_class -> string

type params = {
  model : string;  (** display name, e.g. ["Encore MultiMax"] *)
  mp_class : mp_class;
  cpus : int;
  local_access_us : float;  (** one local memory word access *)
  remote_access_us : float option;
      (** one remote word access; [None] for NORMA (no remote access) *)
  page_copy_us : float;  (** copying one page, CPU + bus *)
  map_op_us : float;  (** one pmap enter/remove/protect operation *)
  fault_base_us : float;  (** trap + fault-handler entry/exit *)
  msg_overhead_us : float;  (** fixed local message send+receive cost *)
  context_switch_us : float;
  quantum_us : float;
      (** scheduler timeslice: a compute burst yields its processor at
          this granularity when the run queue is contended *)
  net_latency_us : float;  (** one-way inter-node message latency *)
  net_us_per_byte : float;  (** inter-node transfer cost per byte *)
  pageout_backoff_us : float;
      (** pageout-daemon back-off between reclaim passes while laundry is
          in flight; sweepable by the benches *)
  handoff : bool;
      (** handoff scheduling: a local fast-path send donates its
          processor to the receiver. [true] in every preset; [false] is
          the E5 ablation arm, where every receive pays the full
          context-switch charge. *)
}

val multimax : params
(** 16-CPU UMA (Encore MultiMax). *)

val butterfly : params
(** 64-CPU NUMA (BBN Butterfly): remote ≈ 10x local. *)

val hypercube : params
(** 32-node NORMA (Intel HyperCube): remote access only by message,
    hundreds of microseconds. *)

val uniprocessor : params
(** VAX 11/780-class machine for single-host experiments. *)

val custom :
  ?cpus:int ->
  ?local_access_us:float ->
  ?context_switch_us:float ->
  ?quantum_us:float ->
  ?net_latency_us:float ->
  ?net_us_per_byte:float ->
  mp_class ->
  params
(** A parameterised machine: the class's preset (MultiMax, Butterfly or
    HyperCube) with the given fields replaced. *)

val access_us : params -> remote:bool -> words:int -> float
(** Simulated time to touch [words] memory words. For a NORMA machine
    with [remote = true] this raises [Invalid_argument]: there is no
    remote memory access; use the network. *)
