(** The default pager (§6.2.2): a trusted data manager for kernel-created
    memory objects — zero-filled [vm_allocate] memory, shadow objects and
    temporary pageout objects.

    It is deliberately implemented against the same external interface as
    any user data manager ("there are no fundamental assumptions made
    about the nature of secondary storage"): it receives [pager_create]
    on its public port, then serves [pager_data_request] /
    [pager_data_write] on the memory-object ports it is handed, backing
    them with blocks of a paging disk. Pages never written out are
    answered with [pager_data_unavailable] so the kernel zero-fills. *)

type t

val start : Mach_vm.Kctx.t -> disk:Mach_hw.Disk.t -> t
(** Spawn the default pager task, register its public port in
    [kctx.default_pager_port], and install the §6.2.2 rescue writer. *)

val pages_stored : t -> int
val blocks_free : t -> int

val runtime_stats : t -> Mach_vm.Pager_runtime.Stats.t
(** The shared per-pager counters (requests, pages served, …). *)
