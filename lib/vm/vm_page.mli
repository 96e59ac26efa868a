(** Resident page operations (§5.3).

    A resident page structure corresponds to exactly one physical frame
    and records the memory object and offset it caches, the
    manager-imposed access lock, and everywhere it is validated in
    hardware (so it can be invalidated). *)

open Vm_types

val insert :
  Kctx.t ->
  obj ->
  offset:int ->
  frame:int ->
  state:page_state ->
  page
(** Create a page caching [obj@offset] in [frame], in [state], and
    enter it in the object's page hash. Raises [Invalid_argument] if the
    offset is not page-aligned or already cached. *)

val lookup : obj -> offset:int -> page option
(** The §5.3 virtual-to-physical lookup for one object. *)

val pages_between : obj -> lo:int -> hi:int -> page list
(** [obj]'s resident pages in \[[lo], [hi]), in offset order: walks that
    block or free use it, so hash order never reaches the simulation. *)

(** {2 Pins} A faulter pins a page while it waits for the page's
    [Demanded] data, whatever the manager answers, and while it
    validates a translation. Whether a page may be taken is asked only
    through the three predicates, each named for its consumer's question. *)

val pin : page -> unit
val unpin : page -> unit
(** The last [unpin] wakes [busy_wait]. *)

val may_revoke : page -> bool
(** Neither busy nor pinned: a manager's flush or clean may take the
    data back. *)

val may_free : page -> bool
(** {!may_revoke} and not wired: pageout, a flush or a write's release
    may take the frame too, and {!free} asserts it. *)

val may_move : page -> bool
(** [Resident], not wired and not pinned: a COW steal or a chain
    collapse may rename it. *)

val wait_unpinned : page -> unit
(** Block until the page is neither busy nor pinned. *)

(** {2 Transitions} The only writers of [p_state]: each asserts its
    source state and wakes [busy_wait] on leaving a busy state. *)

val resolve : Kctx.t -> page -> unit
(** [Demanded], [Speculative] or [Failed] → [Resident], activated. *)

val fail : page -> unit
(** [Demanded] → [Failed]. *)

val demand : page -> unit
(** [Speculative] → [Demanded]. *)

val launder : Kctx.t -> page -> unit
(** [Resident] → [Cleaning], on the laundry queue. *)

val cleaned : page -> unit
(** [Cleaning] → [Resident]; the caller requeues or frees the page. *)

val add_mapping : page -> Mach_hw.Pmap.t -> vpn:int -> unit
val drop_mapping : page -> Mach_hw.Pmap.t -> vpn:int -> unit

val remove_all_mappings : ?charge:bool -> Kctx.t -> page -> unit
(** Invalidate every hardware translation of this page (charging one map
    operation each), harvesting modify bits into [page.dirty] first.
    [~charge:false] skips the per-mapping time charge — callers that
    batch many pages under one charge site (the copy engine) use it and
    account for the whole batch themselves. *)

val remove_mapping : Kctx.t -> page -> Mach_hw.Pmap.t -> vpn:int -> bool
(** Invalidate this page's translation at [vpn] in one pmap, harvesting
    modify bits first; false if it had none there. Charges nothing, like
    [remove_all_mappings ~charge:false]. *)

val harvest_bits : Kctx.t -> page -> unit
(** Pull the hardware reference/modify bits into the page structure
    ([dirty]) and clear them. *)

val free : Kctx.t -> page -> unit
(** Remove from its object, the queues and all pmaps; release the frame.
    Asserts {!may_free}. *)

val release_placeholder : Kctx.t -> page -> unit
(** Reclaim a [Speculative] placeholder whose data never arrived;
    no-op in any other state. Safe because no faulter ever waits on a
    speculative page. *)

val rename : page -> obj -> offset:int -> unit
(** Move the page to cache a different (object, offset): a pure move of
    the page structure, costing nothing and leaving its hardware
    translations in place. Raises [Invalid_argument] if the target
    offset is occupied.

    The shadow-chain collapse relies on keeping the translations: it
    moves a page up only from a backing object whose sole reference is
    the surviving shadow, to the offset that shadow already resolves it
    at, so every existing translation still names the right frame for
    the right address. Those translations are read-only (the fork or
    copyin that froze the chain write-protected them), so a later write
    faults, finds the page in the top object and upgrades in place. The
    copy engine's steal, which moves a page to the faulting object,
    removes the stale translations itself first. *)
