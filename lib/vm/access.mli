(** Simulated memory accesses by task code.

    Every load/store goes through the pmap exactly like a CPU: a valid
    translation costs only the machine's memory access time; a missing
    or insufficient translation traps into {!Fault.handle} and retries.
    These functions power [vm_read]/[vm_write] (Table 3-3) and all the
    workload generators. *)

type error = Bad_address of int | Access_denied of int | Manager_failed of int

val pp_error : Format.formatter -> error -> unit

val touch :
  Kctx.t ->
  Vm_map.t ->
  addr:int ->
  write:bool ->
  ?policy:Fault.policy ->
  unit ->
  (Mach_hw.Phys_mem.frame, error) result
(** One word access at [addr]: returns the frame backing the page,
    after any faults resolve. Charges one local memory access; a flush
    landing in that charge may already have freed the returned frame,
    so {!read_bytes} and {!write_bytes} move their data before it. *)

val read_bytes :
  Kctx.t ->
  Vm_map.t ->
  addr:int ->
  len:int ->
  ?policy:Fault.policy ->
  unit ->
  (bytes, error) result
(** Copy [len] bytes out of the address space (faulting pages in). *)

val write_bytes :
  Kctx.t ->
  Vm_map.t ->
  addr:int ->
  bytes ->
  ?policy:Fault.policy ->
  unit ->
  (unit, error) result
(** Copy bytes into the address space (faulting and COW-resolving). *)

