(** Copy-on-reference task migration (§8.2, after Zayas).

    The migration manager creates a memory object representing each
    region of the source task's (frozen) address space and maps it into
    a new task on the destination host. The destination kernel treats
    page faults of the migrated task as paging requests on those
    objects, which the manager answers by reading the source task's
    memory — so pages cross the network only when referenced.

    Three strategies are provided for the E7 comparison:
    - [Eager_copy]: classic full-transfer before resume;
    - [Copy_on_reference]: pure demand paging;
    - [Pre_paging n]: demand paging, but each fault ships [n] extra
      trailing pages ("the migration manager may provide some data in
      advance for tasks with predictable access patterns"). *)

open Mach_kernel.Ktypes

type t

type strategy = Eager_copy | Copy_on_reference | Pre_paging of int

type migration = {
  mg_task : task;  (** the new task on the destination host *)
  mg_freeze_us : float;  (** simulated time the source was frozen before the
                             destination task could start (initial latency) *)
}

val start : kernel -> ?name:string -> unit -> t
(** The migration manager task; run it on the source task's host. *)

val migrate : t -> src:task -> dst_kernel:kernel -> strategy -> migration
(** Move [src]'s address space to a new task on [dst_kernel]. The
    source task must be frozen (no running threads); it is kept alive
    as the paging backing store until {!finish}. *)

val pages_transferred : t -> int
(** Pages shipped across so far (eager + demand + pre-paged). *)

val back_region :
  t ->
  src:task ->
  base:int ->
  size:int ->
  strategy ->
  Mach_ipc.Message.port
(** Create a memory object backed by [size] bytes at [base] in (frozen)
    [src] — the building block of {!migrate}, exposed so tests can drive
    the pager protocol on a single region. *)

val runtime_stats : t -> Mach_vm.Pager_runtime.Stats.t
(** The shared per-pager counters (requests, pages served, …). *)

val finish : t -> migration -> unit
(** Declare the migration over; terminates the source task backing the
    migrated regions (demand paging stops working after this). *)
