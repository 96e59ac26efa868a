open Ktypes
module Sched = Mach_sim.Sched

let syscall_overhead_us = 10.0

let compute k us = if us > 0.0 then Sched.compute k.k_sched us
