(** Consistent network shared memory (§4.2).

    A data manager serving one memory object to clients on multiple
    hosts with independent Mach kernels. Coherence follows the
    single-writer / multiple-reader invalidation protocol of the
    paper's walkthrough (after Li & Hudak):

    - read faults are answered with the data write-locked
      ([pager_data_provided] with a write lock value);
    - a read fault on a page another kernel writes downgrades that
      writer instead of revoking its copy, when the page is the one
      the faulting thread waits on (the first page of the
      [data_request]): [pager_data_lock] with a write lock, then
      [pager_clean_request]. A dirty copy comes back as
      [pager_data_write]; once the clean's [pager_lock_completed]
      arrives, the old writer and the new reader both hold the page
      read-only. The lock is sent first so the writer cannot dirty the
      page after the clean's snapshot. This relies on ordering: both
      messages go to the writer's one request port, manager-to-kernel
      messages on one port arrive in order, and the kernel's single
      pager-service loop handles them one at a time;
    - a write fault or upgrade, and a read for one of the kernel's
      speculative cluster neighbours, trigger [pager_flush_request] to
      every other kernel caching the page (for a read, only the
      writer); dirty copies come back as [pager_data_write]; once every
      invalidation is confirmed, the requester is served
      ([pager_data_lock] with no lock, or a fresh
      [pager_data_provided]). Neighbours flush rather than downgrade
      so that a kernel running ahead loses pages to the others' faults
      and contending clients keep progressing in step.

    The server records each kernel by the pager request port it
    presented in [pager_init], exactly as §3.4.1 prescribes. *)

open Mach_kernel.Ktypes

type t

val start : kernel -> ?name:string -> unit -> t
(** Spawn the shared memory server task on [kernel] (clients may live
    on any host of the cluster). Its {!invalidations}, {!downgrades}
    and {!grants} counters join [kernel]'s metrics registry as
    [netmem.*]. *)

val create_region : t -> size:int -> Mach_ipc.Message.port
(** Allocate a shared-memory region; returns its memory object, which
    any client task maps with [vm_allocate_with_pager] (how clients
    learn the port — a name service — is out of scope, as in the
    paper's example). *)

val write_initial : t -> region:Mach_ipc.Message.port -> offset:int -> bytes -> unit
(** Seed region contents before clients attach. *)

val read_authoritative : t -> region:Mach_ipc.Message.port -> offset:int -> len:int -> bytes
(** The server's current authoritative bytes (for tests: pages checked
    out to a writer may be newer in that kernel's cache). *)

(** {2 Introspection (tests, benches)} *)

type page_view = [ `Idle | `Readers of int | `Writer | `Transition ]
(** [`Transition]: waiting for invalidations or a downgrade to
    confirm. *)

val page_state : t -> region:Mach_ipc.Message.port -> page:int -> page_view
val invalidations : t -> int
(** Total flush requests issued. *)

val downgrades : t -> int
(** Total writers downgraded to readers (lock plus clean, no flush). *)

val grants : t -> int
(** Total write grants issued. *)

val runtime_stats : t -> Mach_vm.Pager_runtime.Stats.t
(** The shared per-pager counters (requests, pages served, …). *)
