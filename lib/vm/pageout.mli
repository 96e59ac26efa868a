(** The pageout daemon (§5.4, §6.2.2, §6.2.3).

    Maintains the free-frame target by aging pages from the active queue
    to the inactive queue (clearing hardware reference bits so reuse is
    observable), then reclaiming inactive pages clean first: a pass
    frees clean pages before it launders any dirty one, and launders
    only for the deficit the clean pages leave. A dirty page it finds
    moves once to the dirty queue, which the launder pass drains oldest
    first; [vm.pageout_passes] and [vm.pageout_scanned] count the
    passes and the pages they look at. Each laundering seed grows into
    a run of adjacent same-object dirty pages shipped in one
    [pager_data_write], kept resident busy-cleaning until the manager's
    release. It takes only pages that {!Vm_page.may_free}.
    Anonymous memory being paged out for the first time is handed to
    the default pager with [pager_create]. *)

val start : Kctx.t -> unit
(** Spawn the daemon thread. It wakes when {!Kctx.alloc_frame} signals
    memory pressure (including the low-watermark throttle check), and
    backs off by [Machine.params.pageout_backoff_us] between passes
    while laundry is in flight. *)

val run_once : Kctx.t -> int
(** One reclamation pass (for deterministic unit tests): returns the
    number of frames actually freed. Laundered pages are not counted —
    their frames come back at [release_write] (or rescue) time. *)
