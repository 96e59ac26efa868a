(** A Camelot-style recoverable storage manager (§8.3).

    Servers keep permanent objects in virtual memory backed by this
    disk manager; write-ahead logging makes transactions permanent and
    failure-atomic. The §8.3 contract is enforced on the paging path:
    "when the disk manager receives a pager_flush_request from the
    kernel, it verifies that the proper log records have been written
    before writing the specified pages to disk" — here, every
    [pager_data_write] forces the log up to the page's last update LSN
    before the page may reach the data disk.

    Clients map recoverable segments straight into their address space
    (the Camelot benefits list: no buffer management, no private page
    replacement, cache sized by global load) and record each update
    with old/new values before performing it. *)

open Mach_kernel.Ktypes

type t
type tid = int

val start :
  kernel ->
  ?name:string ->
  log_disk:Mach_hw.Disk.t ->
  data_disk:Mach_hw.Disk.t ->
  format:bool ->
  unit ->
  t
(** Boot the disk manager. With [format:false], mounts existing state
    and runs crash recovery: committed transactions are redone onto the
    data disk, uncommitted ones undone. *)

val server_task : t -> task
val service_port : t -> Mach_ipc.Message.port

(** {2 Introspection} *)

val log_forces : t -> int
val wal_violations : t -> int
(** Pages that would have reached the data disk before their log
    records — must always be 0 (the §8.3 invariant). *)

val recovered_redo : t -> int
val recovered_undo : t -> int

val segment_object : t -> string -> size:int -> Mach_ipc.Message.port
(** The segment's memory-object port (creating the segment if needed) —
    conformance tests drive the pager protocol on it directly. *)

val runtime_stats : t -> Mach_vm.Pager_runtime.Stats.t
(** The shared per-pager counters (requests, pages served, …). *)

(** {2 Client operations (RPC to the disk manager)} *)

module Client : sig
  type error = [ `Server_error of string | `Ipc_failure | `Memory of Mach_vm.Access.error ]

  val pp_error : Format.formatter -> error -> unit

  val map_segment :
    task -> server:Mach_ipc.Message.port -> string -> size:int -> (int, error) result
  (** Create/open a recoverable segment and map it; returns the
      address. The mapping is shared with the manager (same memory
      object), so transactional undo is visible immediately. *)

  val begin_txn : task -> server:Mach_ipc.Message.port -> (tid, error) result

  val store :
    task ->
    server:Mach_ipc.Message.port ->
    tid ->
    segment:string ->
    base:int ->
    offset:int ->
    bytes ->
    (unit, error) result
  (** Transactional update: reads the old value from the mapping, logs
      (old, new) with the manager, then performs the in-memory write.
      [base] is the address [map_segment] returned. *)

  val commit : task -> server:Mach_ipc.Message.port -> tid -> (unit, error) result
  (** Forces the log through this transaction's commit record. *)

  val abort : task -> server:Mach_ipc.Message.port -> tid -> (unit, error) result
  (** The manager undoes the transaction's updates through its own
      mapping of the segments. *)
end
