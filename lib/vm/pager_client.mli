(** The kernel's side of the external memory management interface.

    Sends the Table 3-5 calls ([pager_init], [pager_data_request],
    [pager_data_write], [pager_data_unlock], [pager_create]) and handles
    the Table 3-6 calls arriving on pager request ports
    ([pager_data_provided], [pager_data_lock], [pager_flush_request],
    [pager_clean_request], [pager_cache], [pager_data_unavailable]).

    All calls are asynchronous, exactly as the paper specifies: "the
    calls do not have explicit return arguments and the kernel does not
    wait for acknowledgement". *)

open Vm_types

val kernel_send : ?retry_thread:string -> Kctx.t -> Mach_ipc.Message.t -> (unit, unit) result
(** The kernel's send for pager traffic, both directions: never blocks
    the caller. A full queue retries from a detached thread named
    [retry_thread] (default ["kernel-send-retry"]) and counts as sent;
    [Error ()] means the destination port is dead. *)

val install : Kctx.t -> unit
(** Install the port-aware object terminator into the context. Call once
    at kernel boot. *)

val ensure_initialized : Kctx.t -> obj -> unit
(** If the object has an external pager that has not been initialised,
    allocate the pager request and name ports, register them, and send
    [pager_init] (§3.4.1: performed before [vm_allocate_with_pager]
    completes, without awaiting a reply). *)

val request_cluster :
  Kctx.t -> obj -> offset:int -> desired_access:Mach_hw.Prot.t -> window:int -> page
(** Allocate a [Demanded] placeholder for the page at [offset] and send
    one [pager_data_request] for it; the caller waits on the page. The
    request widens over up to [window - 1] forward-adjacent non-resident
    pages (stopping at the object end, at a resident page, or when a
    frame is not free without waiting). The extra placeholders are
    [Speculative]: no faulter waits on them, and a timer reclaims any
    the manager never fills. Returns the demanded page — which may be a
    page another faulter installed while we slept for a frame. *)

val rerequest : Kctx.t -> page -> desired_access:Mach_hw.Prot.t -> unit
(** Re-send a single-page [pager_data_request] for a placeholder —
    used when a fault lands on a [Speculative] cluster page whose data
    may never come (partial provide). *)

val bind_to_default_pager : Kctx.t -> obj -> unit
(** First pageout from an anonymous object: create a kernel memory
    object, hand it to the default pager with [pager_create], and bind
    it as the object's pager. Requires [default_pager_port] to be set. *)

val write_run : Kctx.t -> page list -> dispose:dispose -> unit
(** Launder a run of adjacent dirty pages: one [pager_data_write] for
    the whole run. The pages stay [Cleaning] on the laundry queue until
    the manager releases the data ([Release_write]) — a refault
    during the clean waits on the busy machinery instead of
    round-tripping to the pager. On release, [Dispose_keep] pages become
    clean-resident (freed only while memory pressure persists);
    [Dispose_free] pages leave the cache. If the manager sits on the
    data past the release timeout, the run is rescued to the default
    pager (§6.2.2) and the cleaning pages are freed. [pages] must be
    non-empty, same-object, offset-sorted, offset-adjacent, [Resident],
    and the object must already have a pager binding. *)

val send_unlock : Kctx.t -> obj -> offset:int -> length:int -> desired_access:Mach_hw.Prot.t -> unit
(** [pager_data_unlock]: ask the manager to loosen a page lock. *)

val handle_manager_message : Kctx.t -> Mach_ipc.Message.t -> unit
(** Dispatch one manager→kernel message (the kernel's pager service
    thread calls this for traffic on pager request ports). Unknown or
    malformed messages are counted and dropped. *)

val terminate : Kctx.t -> obj -> unit
(** Release everything: resident pages, kernel port rights (destroying
    the request and name ports — the manager observes their death and
    shuts down, §3.4.1), registry entries. *)
