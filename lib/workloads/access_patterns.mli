(** Page-reference generator for the shared-memory experiment (E6) and
    bench/perf's [netmem_norma]. *)

type op = { ap_page : int; ap_write : bool }

val working_set :
  pages:int -> ops:int -> write_ratio:float -> hot_fraction:float -> hot_bias:float ->
  Mach_util.Rng.t -> op list
(** Accesses hit a hot subset of [hot_fraction]·pages with probability
    [hot_bias] (read/write locality in the Li & Hudak sense). *)
