(** Task address maps (§5.1): a sorted directory of valid address
    ranges, each mapping to a memory object and offset.

    Maps are two-level: to account for read/write sharing through
    inheritance, a top-level entry may refer to a second-level *sharing
    map* whose own entries refer to objects; per-task attributes
    (protection, inheritance) stay in the top-level entry, while changes
    to the memory itself take place in the sharing map and are seen by
    every task referencing it. As an optimisation, entries point
    directly at objects when no inheritance-sharing has occurred. *)

open Vm_types

type t

type entry = {
  mutable va_start : int;
  mutable va_end : int;  (** exclusive *)
  mutable protection : Mach_hw.Prot.t;
  mutable max_protection : Mach_hw.Prot.t;
  mutable inheritance : inheritance;
  mutable backing : entry_backing;
}

and entry_backing =
  | Direct of direct
  | Shared of { share_map : t; sh_offset : int }

and direct = {
  mutable d_obj : obj;
  mutable d_offset : int;
  mutable needs_copy : bool;  (** copy-on-write pending: shadow before writing *)
  d_from_copy : bool;
      (** entry came from a lazy message copy-out; its faults count as
          copy-out materialization *)
}

type region_info = {
  ri_start : int;
  ri_size : int;
  ri_protection : Mach_hw.Prot.t;
  ri_max_protection : Mach_hw.Prot.t;
  ri_inheritance : inheritance;
  ri_object_id : int option;  (** [None] for sharing-map regions *)
  ri_shared : bool;
  ri_name_port : port option;  (** the pager name port, as vm_regions returns *)
}

exception No_space
exception Bad_address of int

val create : Kctx.t -> pmap:Mach_hw.Pmap.t option -> t
(** An empty map over addresses below [2^40]. *)

val pmap : t -> Mach_hw.Pmap.t option
val kctx : t -> Kctx.t
val entries : t -> entry list
(** Sorted; for inspection and invariant checks. *)

val size : t -> int
(** Total mapped bytes. *)

val check_invariants : t -> (unit, string) result
(** Sorted, non-overlapping, page-aligned, positive spans — for
    property tests. *)

(** {2 Allocation (Table 3-3 / 3-4)} *)

val allocate : t -> ?addr:int -> size:int -> anywhere:bool -> unit -> int
(** [vm_allocate]: new zero-filled anonymous memory; returns the chosen
    address. Raises {!No_space}. *)

val allocate_with_object :
  t ->
  ?addr:int ->
  size:int ->
  anywhere:bool ->
  obj:obj ->
  offset:int ->
  ?needs_copy:bool ->
  ?from_copy:bool ->
  unit ->
  int
(** Map an existing object read-write (maximum protection: all),
    consuming one reference the caller must have taken. Foundation of
    [vm_allocate_with_pager] and of mapped message transfer. *)

val deallocate : t -> addr:int -> size:int -> unit
(** [vm_deallocate]: unmap the range, releasing object references and
    hardware translations. Partial entries are clipped. *)

val destroy : t -> unit
(** Deallocate everything (task death). *)

(** {2 Attributes} *)

val protect : t -> addr:int -> size:int -> set_max:bool -> Mach_hw.Prot.t -> unit
(** [vm_protect]. Raises {!Bad_address} if the range has holes. *)

val set_inheritance : t -> addr:int -> size:int -> inheritance -> unit
(** [vm_inherit]. *)

val regions : t -> region_info list
(** [vm_regions]. *)

(** {2 Lookup (the fault path and data access)} *)

type lookup = {
  lk_entry_prot : Mach_hw.Prot.t;
  lk_obj : obj;  (** the first-level object to search from *)
  lk_offset : int;  (** offset of the faulting page within [lk_obj] *)
  lk_writable : bool;  (** hardware may map writable (no pending COW) *)
  lk_from_copy : bool;  (** fault materializes a lazily copied-out page *)
  lk_run : int;
      (** bytes from [lk_offset] to the end of the backing record — the
          faulting page plus the forward window of same-entry neighbors
          a clustered COW fault may resolve alongside it *)
}

val lookup :
  ?count:bool -> t -> addr:int -> write:bool -> (lookup, [ `Invalid_address | `Protection ]) result
(** Resolve an address for an access: follows sharing maps, checks
    protection, and resolves pending copy-on-write for writes by
    interposing a shadow object (§5.5 "copy-on-write" step). For reads
    of COW regions, [lk_writable] is false: the page must be mapped
    read-only so the eventual write faults.

    Lookups first consult the map's last-hit hint, then binary-search
    the sorted entry index; [count] (default true) controls whether the
    hint hit/miss statistics are charged — the fault handler passes
    [~count:false] for its internal re-lookups so the counters measure
    one probe per fault. *)

val fork : t -> child_pmap:Mach_hw.Pmap.t option -> t
(** Build a child map per the inheritance attributes (§3.3): [Share]
    promotes the parent entry into a sharing map referenced by both;
    [Copy] sets up symmetric copy-on-write; [None] leaves a hole. *)

(** {2 Message copy objects ([vm_map_copyin] / [vm_map_copyout])}

    At send time the kernel snapshots the sender's region into a
    kernel-held copy object: the sender's entries are COW-protected
    ([needs_copy] + pmap write-protect) and the copy holds object
    references — no bytes move. The message carries the handle; at
    receive time {!copyout} maps it with [needs_copy = true] and pages
    materialize lazily through the fault path. *)

type copy_piece = {
  cpc_rel : int;  (** offset of this piece within the copy *)
  cpc_span : int;
  cpc_obj : obj;  (** referenced; released by copyout-consume or discard *)
  cpc_offset : int;
}

type vm_copy = {
  vc_kctx : Kctx.t;
  vc_size : int;  (** page-rounded bytes covered *)
  vc_pieces : copy_piece list;  (** tile [0, vc_size) in order *)
  mutable vc_consumed : bool;
}

type Mach_ipc.Message.copy_payload += Vm_copy_handle of vm_copy
      (** how a copy object travels inside a {!Mach_ipc.Message.Ool_copy}
          item between tasks of the same kernel *)

val copyin : t -> addr:int -> size:int -> vm_copy
(** [vm_map_copyin]: snapshot [addr, addr+size) (page-rounded). Charges
    one map op per page (the COW write-protect); copies no bytes.
    Raises {!Bad_address} if the range has holes. Increments the
    kernel's [s_copyins] counter. *)

val copyout : t -> vm_copy -> ?addr:int -> unit -> int
(** [vm_map_copyout]: map the copy into [t] at a fresh address (consumes
    the copy — its references move to the new entries). O(pieces) map
    ops; first touch of each page faults ([lk_from_copy]). Raises
    [Invalid_argument] if the copy was already consumed or belongs to a
    different kernel (remote copies go through the netmem-style export
    instead). *)

val copy_discard : vm_copy -> unit
(** Drop an unconsumed copy object (send failed, message destroyed).
    Idempotent. *)

val copy_size : vm_copy -> int
