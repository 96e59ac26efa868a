(** The page-replacement queues (§5.4): an active queue in LRU order,
    an inactive queue of pageout candidates, a dirty queue of inactive
    pages the pageout daemon found dirty and set aside for laundering,
    and a laundry queue of dirty pages whose [pager_data_write] is
    outstanding (the cleaning state of the writeback pipeline — see
    DESIGN.md). (Pages "not caching any data" — the paper's free queue
    — live in {!Mach_hw.Phys_mem}'s free frame list; a freed page's
    structure is discarded.) *)

open Vm_types

type t

val create : unit -> t
val active_count : t -> int
val inactive_count : t -> int
(** Inactive plus dirty pages: both are pageout candidates. *)

val dirty_count : t -> int

val laundry_count : t -> int
(** Pages busy-cleaning: shipped to a manager, release not yet seen.
    Non-zero means pageout is in flight, so allocators may throttle
    below the low watermark instead of spinning the daemon. *)

val activate : t -> page -> unit
(** Put the page at the tail of the active queue (most recently used),
    removing it from whatever queue it was on. Wired pages may be
    activated; the pageout daemon skips them. *)

val deactivate : t -> page -> unit
(** Move to the tail of the inactive queue and clear the hardware
    reference bit so future use is detectable. *)

val set_dirty : t -> page -> unit
(** Move to the tail of the dirty queue: an inactive page found dirty
    waits there, in the order it was found, for the launder pass. *)

val launder : t -> page -> unit
(** Move to the tail of the laundry queue ([q_state = Q_laundry]). Only
    {!Vm_page.launder}, the [Cleaning] transition, calls it. The page
    leaves the queue on [release_write], on rescue timeout, or when
    freed. *)

val remove : t -> page -> unit
(** Detach from any queue (page being freed or wired). *)

val oldest_active : t -> page option
val oldest_inactive : t -> page option
val oldest_dirty : t -> page option

val check_invariants : t -> (unit, string) result
(** Oracle for the property tests: every page on a queue carries the
    matching [q_state] and page state ([Cleaning] on the laundry queue,
    [Resident] on the others), no page sits on two queues, and queue
    lengths agree with a membership walk. *)
