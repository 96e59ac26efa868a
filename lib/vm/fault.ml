open Vm_types
module Engine = Mach_sim.Engine
module Trace = Mach_sim.Trace
module Metrics = Mach_util.Metrics
module Waitq = Mach_sim.Waitq
module Prot = Mach_hw.Prot
module Pmap = Mach_hw.Pmap
module Phys_mem = Mach_hw.Phys_mem
module Machine = Mach_hw.Machine

type policy = Wait_forever | Abort_after of float | Zero_fill_after of float
type outcome = Done | Invalid_address | Protection_failure | Pager_error

(* A dead manager answers nothing: requests against it resolve locally
   (see [Pager_client.pager_died] for in-flight pages). *)
let dead_pager obj =
  match obj.pager with
  | Pager p -> p.pager_dead || not (Mach_ipc.Port.alive p.memory_object)
  | No_pager -> false

(* Objects whose initial contents are zero by definition — their dead
   pager can be substituted by zero fill; file-backed data cannot. *)
let anonymous_style obj =
  obj.temporary || (match obj.pager with Pager p -> p.is_default | No_pager -> true)

(* The fault pipeline is split in two:

   - The FAST PATH handles the common case — the page is Resident,
     not manager-locked against this access, and no
     copy-on-write is due. One map lookup (hinted), one hash probe,
     one pmap entry; no retry loop, no waiting.

   - The SLOW PATH is a retry driver over one resolution step per
     obstacle (busy page, manager lock, COW copy, pager request,
     zero fill). Each step may sleep; afterwards the world must be
     re-examined from the map lookup down, because entries, objects
     and pages can all have changed underneath us.

   Both paths converge on hardware validation and, when a cluster
   window is configured, a burst pre-enter of already-resident
   neighbor pages (mapped read-only so writes still fault for COW
   and dirty tracking). *)

let handle kctx map ~addr ~write ?policy () =
  let policy = match policy with Some p -> p | None -> Abort_after kctx.Kctx.pager_timeout_us in
  let stats = kctx.Kctx.stats in
  let ps = kctx.Kctx.page_size in
  let engine = kctx.Kctx.engine in
  let pm =
    match Vm_map.pmap map with
    | None -> invalid_arg "Fault.handle: map has no pmap"
    | Some pm -> pm
  in
  Counters.incr stats s_faults;
  (* The causal span of this fault: opened before any charge, closed
     with the resolution kind. The id rides in every message this fault
     causes (pager_data_request, the manager's reply), so the whole
     duality path — fault → IPC → manager → IPC → resolution — reduces
     from the trace. [via] tracks the dominant resolution step. *)
  let tr = kctx.Kctx.trace in
  let span = Trace.span_open tr ~subsystem:"vm" ~label:"fault" in
  let t_entry = Engine.now engine in
  let via = ref "fast" in
  Kctx.charge kctx kctx.Kctx.params.Machine.fault_base_us;
  (* Timed wait helper: false when the policy's deadline passes first.
     Waits on the default pager are never aborted — it is "a trusted
     system component" (§6.2.2), merely slow under load. *)
  let wait_while page cond =
    let trusted =
      match page.p_obj.pager with Pager p -> p.is_default | No_pager -> false
    in
    match (if trusted then Wait_forever else policy) with
    | Wait_forever ->
      while cond () do
        Waitq.wait page.busy_wait
      done;
      true
    | Abort_after limit | Zero_fill_after limit ->
      let deadline = Engine.now engine +. limit in
      let rec loop () =
        if not (cond ()) then true
        else
          let remaining = deadline -. Engine.now engine in
          if remaining <= 0.0 then false
          else begin
            ignore (Waitq.wait_timeout page.busy_wait ~timeout:remaining);
            loop ()
          end
      in
      loop ()
  in
  let lock_forbids page =
    if write then Prot.can_write page.page_lock else Prot.can_read page.page_lock
  in
  let note_depth depth =
    Counters.peak stats s_chain_depth_peak depth
  in
  (* ---- copy engine predicates ------------------------------------- *)
  (* A COW source page can be STOLEN (renamed up the chain, no copy and
     no 400 µs charge) when nobody else can ever reach it: every object
     strictly below [top] down to the page's owner is a sole-referenced,
     anonymous temporary — so the only reference path to the page runs
     through [top] — and the page itself is Resident, unwired, and mapped
     in no pmap but ours. *)
  let chain_exclusive top ~owner =
    let rec walk cur =
      match cur.backing with
      | Some { back_obj = b; _ } ->
        b.ref_count = 1 && b.temporary && b.obj_alive
        && (match b.pager with No_pager -> true | Pager _ -> false)
        && (b == owner || walk b)
      | None -> false
    in
    walk top
  in
  let can_steal first_obj (page : page) =
    page.p_state = Resident
    && page.wire_count = 0
    && List.for_all (fun (pm', _) -> pm' == pm) page.mappings
    && chain_exclusive first_obj ~owner:page.p_obj
  in
  (* Manager-imposed lock check used while waiting for pager_data_lock:
     the page may be flushed out from under us; a dead page ends the
     wait and the fault re-runs from scratch. *)
  let forbidden page () =
    (match Vm_page.lookup page.p_obj ~offset:page.p_offset with
    | Some p -> p == page
    | None -> false)
    && lock_forbids page
  in
  (* Hardware validation protection: entry protection, minus write when
     the page must stay copy-on-write ([write_ok] false — pending COW or
     page from a backing object), minus the manager's lock. *)
  let hw_prot entry_prot ~write_ok ~page_lock =
    let prot = if write_ok then entry_prot else Prot.diff entry_prot Prot.write in
    Prot.diff prot page_lock
  in
  (* Burst pre-enter (the mapping half of cluster-in): after validating
     the faulting page, map forward-adjacent pages that are already
     resident and unmapped — read-only, so the first write to any of
     them still faults for COW resolution and dirty tracking. One map
     operation is charged for the whole batch. *)
  let burst_enter () =
    let batch = ref [] in
    let n = ref 0 in
    (try
       for i = 1 to Kctx.cluster_pages - 1 do
         let a = addr + (i * ps) in
         let vpn = a / ps in
         if Pmap.lookup pm ~vpn <> None then raise Exit;
         match Vm_map.lookup ~count:false map ~addr:a ~write:false with
         | Error _ -> raise Exit
         | Ok lk -> (
           match Vm_object.lookup_chain lk.Vm_map.lk_obj ~offset:lk.Vm_map.lk_offset with
           | Some (p, _, _)
             when p.p_state = Resident && not (Prot.can_read p.page_lock) ->
             let prot = hw_prot lk.Vm_map.lk_entry_prot ~write_ok:false ~page_lock:p.page_lock in
             batch := (vpn, p.frame, prot) :: !batch;
             Vm_page.add_mapping p pm ~vpn;
             Page_queues.activate kctx.Kctx.queues p;
             incr n
           | Some _ | None -> raise Exit)
       done
     with Exit -> ());
    if !n > 0 then begin
      Pmap.enter_batch pm !batch;
      Counters.add stats s_burst_entered !n;
      Kctx.charge kctx kctx.Kctx.params.Machine.map_op_us
    end
  in
  (* Hardware-validate [page] for the faulting address and finish. Slow
     paths may have slept, so the map entry must be looked up afresh; a
     vanished entry still returns Done — the fault was resolved, the
     access simply re-faults. *)
  let finish page ~from_backing =
    (match Vm_map.lookup ~count:false map ~addr ~write with
    | Ok lk ->
      let write_ok = lk.Vm_map.lk_writable && not from_backing in
      let prot = hw_prot lk.Vm_map.lk_entry_prot ~write_ok ~page_lock:page.page_lock in
      let vpn = addr / ps in
      Pmap.enter pm ~vpn ~frame:page.frame ~prot;
      Vm_page.add_mapping page pm ~vpn;
      (* Hold the page across the charge: the map-op sleep is a yield
         point, and a manager flush landing inside it would revoke the
         translation before the faulter ever retries the access —
         under write contention the two kernels then revoke each other
         forever. The flush waits for the hold to drain instead. *)
      page.grant_hold <- page.grant_hold + 1;
      Kctx.charge kctx kctx.Kctx.params.Machine.map_op_us;
      burst_enter ();
      page.grant_hold <- page.grant_hold - 1;
      Waitq.broadcast page.busy_wait
    | Error _ -> ());
    Done
  in
  (* FAST PATH terminal: the lookup that got us here is still valid (no
     yields since), so validate directly from it. *)
  let fast_finish lk page ~from_backing =
    Counters.incr stats s_fast_faults;
    Counters.incr stats s_hits;
    Page_queues.activate kctx.Kctx.queues page;
    let write_ok = lk.Vm_map.lk_writable && not from_backing in
    let prot = hw_prot lk.Vm_map.lk_entry_prot ~write_ok ~page_lock:page.page_lock in
    let vpn = addr / ps in
    Pmap.enter pm ~vpn ~frame:page.frame ~prot;
    Vm_page.add_mapping page pm ~vpn;
    page.grant_hold <- page.grant_hold + 1;
    Kctx.charge kctx kctx.Kctx.params.Machine.map_op_us;
    burst_enter ();
    page.grant_hold <- page.grant_hold - 1;
    Waitq.broadcast page.busy_wait;
    Done
  in
  (* ---- SLOW PATH -------------------------------------------------- *)
  let rec resolve tries =
    if tries > 512 then Pager_error
    else begin
      Trace.point tr ~subsystem:"vm" "map_lookup";
      match Vm_map.lookup ~count:false map ~addr ~write with
      | Error `Invalid_address -> Invalid_address
      | Error `Protection -> Protection_failure
      | Ok lk -> (
        let first_obj = lk.Vm_map.lk_obj in
        let first_off = lk.Vm_map.lk_offset in
        Trace.point tr ~subsystem:"vm" "shadow_walk";
        match Vm_object.lookup_chain first_obj ~offset:first_off with
        | Some (page, _owner, depth) ->
          note_depth depth;
          (match page.p_state with
          | Demanded | Speculative | Cleaning -> slow_busy page tries
          | Failed -> slow_error page tries
          | Resident ->
            if forbidden page () then slow_lock page tries
            else if depth > 0 && write then slow_cow lk page tries
            else begin
              (* Usable after at least one slow step. *)
              Page_queues.activate kctx.Kctx.queues page;
              finish page ~from_backing:(depth > 0)
            end)
        | None -> (
          match Vm_object.chain_has_pager first_obj ~offset:first_off with
          | Some (powner, poffset) -> slow_pager powner poffset tries
          | None -> slow_zero_fill first_obj first_off tries))
    end
  (* Data in transit (or another faulter working the page): wait and
     retry. A speculative cluster placeholder is promoted to a demanded
     page first — the manager may have answered the cluster request
     only partially, so it is asked again for this page alone. *)
  and slow_busy page tries =
    Counters.incr stats s_slow_busy;
    via := (if page.p_state = Cleaning then "clean_hit" else "busy");
    (* Refault on a Cleaning page: absorbed by the laundry
       machinery — the old pipeline would have detached the page and
       round-tripped a fresh data_request to the manager. *)
    if page.p_state = Cleaning then Counters.incr stats s_clean_hits;
    if page.p_state = Speculative then begin
      Vm_page.demand page;
      Pager_client.rerequest kctx page
        ~desired_access:(if write then Prot.rw else Prot.read)
    end;
    if wait_while page (fun () -> busy page) then resolve (tries + 1)
    else undelivered page tries
  (* A previous pager interaction failed for this page. Error refaults
     ride the same retry budget as the other slow steps and are counted,
     so a task spinning on a poisoned page shows up in the E10 trace
     reduction instead of vanishing. *)
  and slow_error page tries =
    Counters.incr stats s_slow_error;
    via := "error";
    undelivered page tries
  (* The manager did not deliver by the policy's deadline (or at all):
     a placeholder gets zeroes under [Zero_fill_after], and any late
     pager_data_provided for it is dropped; otherwise the fault fails. *)
  and undelivered page tries =
    match (policy, page.p_state) with
    | Zero_fill_after _, (Demanded | Speculative | Failed) ->
      Phys_mem.fill kctx.Kctx.mem page.frame '\000';
      Counters.incr stats s_zero_fill;
      Vm_page.resolve kctx page;
      resolve (tries + 1)
    | (Zero_fill_after _ | Wait_forever | Abort_after _), _ -> Pager_error
  (* Manager-imposed lock (§3.4.1): if the lock forbids this access,
     ask for an unlock and wait for pager_data_lock. *)
  and slow_lock page tries =
    Counters.incr stats s_slow_lock;
    via := "lock";
    let owner = page.p_obj in
    if dead_pager owner then
      (* The unlock can never arrive. Anonymous-style objects shed the
         dead manager's lock; file-backed accesses fail. *)
      if anonymous_style owner then begin
        page.page_lock <- Prot.none;
        page.unlock_requested <- false;
        Waitq.broadcast page.busy_wait;
        resolve (tries + 1)
      end
      else begin
        Counters.incr stats s_death_errors;
        Pager_error
      end
    else begin
      (match owner.pager with
      | Pager _ when not page.unlock_requested ->
        page.unlock_requested <- true;
        Pager_client.send_unlock kctx owner ~offset:page.p_offset ~length:ps
          ~desired_access:(if write then Prot.write else Prot.read)
      | Pager _ | No_pager -> ());
      (* The wait also breaks on pager death ([pager_died] broadcasts);
         the retry re-enters [slow_lock] and takes the dead branch. *)
      if wait_while page (fun () -> forbidden page () && not (dead_pager owner)) then
        resolve (tries + 1)
      else Pager_error
    end
  (* Copy-on-write: the page lives in a backing object; give the first
     object its own copy (§5.5). This is the copy engine's main stage:
     the faulting page is STOLEN (renamed up, no copy) when it has no
     other possible user, or copied otherwise; then a forward window of
     adjacent pending-copy pages in the same record is resolved the
     same way under the same fault — one fault_base, one batched page
     charge, one batched map charge, one pmap validation. *)
  and slow_cow lk page tries =
    let first_obj = lk.Vm_map.lk_obj in
    let first_off = lk.Vm_map.lk_offset in
    let copies = ref 0 in
    let removed = ref false in
    (* Steal: move the page itself into the faulting object. The stale
       read-only translations it carries (ours by [can_steal]) are
       dropped first; accounting is deferred to the batch charge sites. *)
    let steal src ~off =
      if src.mappings <> [] then removed := true;
      Vm_page.remove_all_mappings ~charge:false kctx src;
      Vm_page.rename src first_obj ~offset:off;
      src.dirty <- true;
      Page_queues.activate kctx.Kctx.queues src;
      Counters.incr stats s_cow_steals
    in
    (* Copy [src] into [frame] as first_obj@off; drops the source's
       stale translations (sharers must refault through their own
       chains and see their own copy). *)
    let copy src frame ~off =
      Phys_mem.copy kctx.Kctx.mem ~src:src.frame ~dst:frame;
      incr copies;
      let fresh = Vm_page.insert kctx first_obj ~offset:off ~frame ~state:Resident in
      fresh.dirty <- true;
      Page_queues.activate kctx.Kctx.queues fresh;
      if src.mappings <> [] then removed := true;
      Vm_page.remove_all_mappings ~charge:false kctx src;
      fresh
    in
    (* Resolve the faulting page first (it may block in alloc_frame). *)
    let primary =
      if can_steal first_obj page then begin
        via := "cow_steal";
        steal page ~off:first_off;
        Some page
      end
      else begin
        via := "cow_copy";
        let frame = Kctx.alloc_frame kctx ~privileged:false in
        (* The world may have shifted while we slept in alloc_frame:
           the source can be gone, or another faulter may have resolved
           this offset already; retry from the top if so. *)
        if
          busy page
          || (not (Hashtbl.mem page.p_obj.obj_pages page.p_offset))
          || Hashtbl.mem first_obj.obj_pages first_off
        then begin
          Kctx.free_frame kctx frame;
          None
        end
        else Some (copy page frame ~off:first_off)
      end
    in
    match primary with
    | None -> resolve (tries + 1)
    | Some primary ->
      Counters.incr stats s_cow_faults;
      (* Clustered copy: sweep forward over adjacent pending-copy pages
         of the same record, stealing or copying each without further
         faults. The window opens only for a sequential fault — one
         landing just past this object's previous batch (a fresh shadow
         starts at 0), BSD's next_read rule — so scattered writes copy
         only what they write. Non-blocking allocation only — the window
         shrinks under memory pressure rather than sleeping mid-batch. *)
      let extras = ref [] in
      let n_extras = ref 0 in
      let window =
        if first_off = first_obj.cow_next then min Kctx.cluster_pages (lk.Vm_map.lk_run / ps)
        else 1
      in
      (try
         for i = 1 to window - 1 do
           let off = first_off + (i * ps) in
           if Hashtbl.mem first_obj.obj_pages off then raise Exit;
           match Vm_object.lookup_chain first_obj ~offset:off with
           | Some (p, _, depth)
             when depth > 0 && p.p_state = Resident && p.page_lock = Prot.none ->
             if can_steal first_obj p then begin
               steal p ~off;
               extras := p :: !extras
             end
             else begin
               match Kctx.try_alloc_frame kctx ~privileged:false with
               | None -> raise Exit
               | Some frame -> extras := copy p frame ~off :: !extras
             end;
             incr n_extras
           | Some _ | None -> raise Exit
         done
       with Exit -> ());
      first_obj.cow_next <- first_off + ((1 + !n_extras) * ps);
      Counters.add stats s_cow_batched !n_extras;
      Metrics.observe kctx.Kctx.cow_batch_hist (float_of_int (1 + !n_extras));
      (* The batch's single charge sites. *)
      if !copies > 0 then
        Kctx.charge kctx (float_of_int !copies *. kctx.Kctx.params.Machine.page_copy_us);
      if !removed then Kctx.charge kctx kctx.Kctx.params.Machine.map_op_us;
      (* The classic chain-length optimisation: if the frozen object
         below is now only ours, merge it away. *)
      Vm_object.collapse kctx first_obj;
      (* Hardware validation for the whole batch. The charges above may
         have slept, so re-check the map; if the entry moved on, fall
         back to validating the faulting page alone. *)
      (match Vm_map.lookup ~count:false map ~addr ~write with
      | Error _ -> ()
      | Ok lk2 when lk2.Vm_map.lk_obj == first_obj && lk2.Vm_map.lk_offset = first_off ->
        let base_vpn = addr / ps in
        let live pg = pg.p_obj == first_obj && not (busy pg) in
        let batch =
          List.filter_map
            (fun pg ->
              if live pg then begin
                let vpn = base_vpn + ((pg.p_offset - first_off) / ps) in
                let prot =
                  hw_prot lk2.Vm_map.lk_entry_prot ~write_ok:lk2.Vm_map.lk_writable
                    ~page_lock:pg.page_lock
                in
                Vm_page.add_mapping pg pm ~vpn;
                Some (vpn, pg.frame, prot)
              end
              else None)
            (primary :: !extras)
        in
        if batch <> [] then begin
          Pmap.enter_batch pm batch;
          Kctx.charge kctx kctx.Kctx.params.Machine.map_op_us
        end;
        if !n_extras = 0 then burst_enter ()
      | Ok _ -> ignore (finish primary ~from_backing:false));
      Done
  (* Not resident anywhere in the chain, and a manager owns the data:
     issue a (possibly clustered) pager_data_request and wait. *)
  and slow_pager powner poffset tries =
    Counters.incr stats s_slow_pager;
    via := "pager";
    if dead_pager powner then
      (* The manager is gone: resolve locally and deterministically
         instead of requesting and waiting out a timeout. *)
      if anonymous_style powner then begin
        let frame = Kctx.alloc_frame kctx ~privileged:false in
        (* alloc_frame may sleep; someone may have resolved the page. *)
        if Hashtbl.mem powner.obj_pages poffset then Kctx.free_frame kctx frame
        else begin
          let page = Vm_page.insert kctx powner ~offset:poffset ~frame ~state:Resident in
          Counters.incr stats s_zero_fill;
          Counters.incr stats s_death_zero_fills;
          Page_queues.activate kctx.Kctx.queues page
        end;
        (* Re-resolve: the page may sit in a backing object (COW due). *)
        resolve (tries + 1)
      end
      else begin
        Counters.incr stats s_death_errors;
        Pager_error
      end
    else begin
      (* Reads and writes cluster alike: only the demanded page is the
         write; its neighbours are speculative placeholders, filled and
         mapped read-only like a read's, so they come back clean. *)
      let page =
        Pager_client.request_cluster kctx powner ~offset:poffset
          ~desired_access:(if write then Prot.rw else Prot.read)
          ~window:Kctx.cluster_pages
      in
      if wait_while page (fun () -> busy page) then resolve (tries + 1)
      else undelivered page tries
    end
  (* Not resident, no manager anywhere in the chain: fresh zeroes. *)
  and slow_zero_fill first_obj first_off tries =
    via := "zero_fill";
    let frame = Kctx.alloc_frame kctx ~privileged:false in
    if Hashtbl.mem first_obj.obj_pages first_off then begin
      (* Someone beat us to it while we waited for memory. *)
      Kctx.free_frame kctx frame;
      resolve (tries + 1)
    end
    else begin
      let page = Vm_page.insert kctx first_obj ~offset:first_off ~frame ~state:Resident in
      Counters.incr stats s_zero_fill;
      Page_queues.activate kctx.Kctx.queues page;
      finish page ~from_backing:false
    end
  in
  (* ---- dispatch ---------------------------------------------------- *)
  Trace.point tr ~subsystem:"vm" "map_lookup";
  let result =
    match Vm_map.lookup map ~addr ~write with
    | Error `Invalid_address -> Invalid_address
    | Error `Protection -> Protection_failure
    | Ok lk -> (
      (* Faults against entries created by a lazy message copy-out are the
         deferred half of the transfer: count them separately so the
         copyin-vs-materialization balance shows in the IPC stats. *)
      if lk.Vm_map.lk_from_copy then begin
        Counters.incr kctx.Kctx.node.Mach_ipc.Transport.node_stats
          Mach_ipc.Transport.s_lazy_copyout_faults
      end;
      Trace.point tr ~subsystem:"vm" "shadow_walk";
      match Vm_object.lookup_chain lk.Vm_map.lk_obj ~offset:lk.Vm_map.lk_offset with
      | Some (page, _owner, depth)
        when page.p_state = Resident
             && (not (lock_forbids page))
             && not (write && depth > 0) ->
        note_depth depth;
        fast_finish lk page ~from_backing:(depth > 0)
      | Some _ | None -> resolve 0)
  in
  (match result with
  | Done -> ()
  | Invalid_address -> via := "invalid_address"
  | Protection_failure -> via := "protection"
  | Pager_error -> via := "pager_error");
  Trace.span_close tr ~subsystem:"vm" ~label:!via span;
  Metrics.observe kctx.Kctx.fault_hist (Engine.now engine -. t_entry);
  result
