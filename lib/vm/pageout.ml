open Vm_types
module Engine = Mach_sim.Engine
module Waitq = Mach_sim.Waitq
module Phys_mem = Mach_hw.Phys_mem
module Machine = Mach_hw.Machine

(* Move aged pages (reference bit clear) from the active queue to the
   inactive queue; referenced pages rotate back with their bit cleared,
   approximating LRU with a clock sweep. *)
let refill_inactive kctx ~want =
  let queues = kctx.Kctx.queues in
  let scanned = ref 0 in
  let moved = ref 0 in
  let budget = Page_queues.active_count queues in
  while !moved < want && !scanned < budget do
    match Page_queues.oldest_active queues with
    | None -> scanned := budget
    | Some page ->
      incr scanned;
      if not (Vm_page.may_free page) then Page_queues.activate queues page
      else if Phys_mem.referenced kctx.Kctx.mem page.frame then begin
        Phys_mem.set_referenced kctx.Kctx.mem page.frame false;
        Page_queues.activate queues page (* second chance *)
      end
      else begin
        Page_queues.deactivate queues page;
        incr moved
      end
  done;
  !moved

(* Cap on pages busy-cleaning at once. Without it a pass over an
   all-dirty inactive queue would launder the whole queue, and the
   manager's message queue grows without bound — refaulting
   data_requests then wait behind seconds of queued writes and abort.
   Two cluster windows keep the disk pipelined while bounding the
   backlog a fault can land behind. *)
let laundry_limit kctx = max (2 * Kctx.cluster_pages) (Kctx.free_target kctx)

(* Returns the number of frames actually freed. Clean pages go first:
   they cost nothing to drop, so the first pass walks the inactive queue,
   frees them and sets each dirty one aside on the dirty queue, where no
   later clean pass looks at it again. The second pass launders for the
   deficit left, oldest dirty page first — run-sized pager_data_writes,
   the pages kept resident busy-cleaning — so those do not count as
   freed here; their frames come back at release_write (or rescue) time.
   Laundered pages do count toward the pass target, though: their frames
   are already on the way. *)
let reclaim_inactive kctx ~want =
  let queues = kctx.Kctx.queues in
  Counters.incr kctx.Kctx.stats s_pageout_passes;
  let freed = ref 0 in
  let laundered = ref 0 in
  let pass ~launder =
    let scanned = ref 0 in
    let budget = (if launder then Page_queues.dirty_count else Page_queues.inactive_count) queues in
    let oldest = if launder then Page_queues.oldest_dirty else Page_queues.oldest_inactive in
    while !freed + !laundered < want && !scanned < budget do
      match oldest queues with
      | None -> scanned := budget
      | Some page ->
        incr scanned;
        Counters.incr kctx.Kctx.stats s_pageout_scanned;
        if not (Vm_page.may_free page) then Page_queues.activate queues page
        else if Phys_mem.referenced kctx.Kctx.mem page.frame then begin
          (* Used while inactive: reactivate. *)
          Counters.incr kctx.Kctx.stats s_reactivations;
          Phys_mem.set_referenced kctx.Kctx.mem page.frame false;
          Page_queues.activate queues page
        end
        else begin
          Vm_page.harvest_bits kctx page;
          if not page.dirty then begin
            Vm_page.free kctx page;
            incr freed
          end
          else if not launder then Page_queues.set_dirty queues page
          else if Page_queues.laundry_count queues >= laundry_limit kctx then
            (* Enough in flight; end the pass and let releases drain. *)
            scanned := budget
          else begin
            (match page.p_obj.pager with
            | No_pager -> Pager_client.bind_to_default_pager kctx page.p_obj
            | Pager _ -> ());
            (* Binding sends pager_create, which can sleep: recheck. *)
            match (page.p_obj.pager, Vm_page.lookup page.p_obj ~offset:page.p_offset) with
            | Pager _, Some p when p == page && Vm_page.may_free page ->
              (* A run grows backward, then forward, over neighbours
                 on any queue that pageout could take on their own:
                 idle, unreferenced and dirty. *)
              let run =
                Pager_client.run_from kctx page ~back:true ~eligible:(fun q ->
                    Vm_page.may_free q
                    && (not (Phys_mem.referenced kctx.Kctx.mem q.frame))
                    &&
                    (Vm_page.harvest_bits kctx q;
                     q.dirty))
              in
              laundered := !laundered + List.length run;
              Pager_client.write_run kctx run ~dispose:Dispose_keep
            | Pager _, _ -> ()
            | No_pager, _ ->
              (* No default pager registered: cannot clean; keep active. *)
              Page_queues.activate queues page
          end
        end
    done
  in
  pass ~launder:false;
  pass ~launder:true;
  !freed

let run_once kctx =
  let target = Kctx.free_target kctx in
  let deficit = target - Phys_mem.free_frames kctx.Kctx.mem in
  if deficit <= 0 then 0
  else begin
    (* Keep the inactive queue at about a third of the active queue. *)
    let queues = kctx.Kctx.queues in
    let want_inactive =
      max deficit ((Page_queues.active_count queues / 3) - Page_queues.inactive_count queues)
    in
    ignore (refill_inactive kctx ~want:want_inactive);
    reclaim_inactive kctx ~want:deficit
  end

let start kctx =
  let backoff = kctx.Kctx.params.Machine.pageout_backoff_us in
  Engine.spawn kctx.Kctx.engine ~name:"pageout-daemon" (fun () ->
      let rec loop () =
        if Kctx.need_pageout kctx then begin
          let idle freed = freed = 0 && Page_queues.laundry_count kctx.Kctx.queues = 0 in
          let freed = run_once kctx in
          (* A pass that only aged pages frees nothing. At the reserve an
             allocator may be asleep on us, and the daemon is about to
             block until someone signals it; work queued elsewhere need
             not be that someone, so pass again over the pages just aged. *)
          let stalled = Phys_mem.free_frames kctx.Kctx.mem <= kctx.Kctx.reserved_frames in
          let freed = if idle freed && stalled then run_once kctx else freed in
          (* With laundry in flight (or progress just made), back off
             briefly and re-check — a release will free frames, and the
             low-watermark check in alloc_frame wakes us early. When
             nothing is reclaimable and nothing is in flight, block
             until an allocator or a release changes the world: a
             demand-driven daemon keeps the event queue empty at
             quiescence. *)
          if idle freed then
            Waitq.wait kctx.Kctx.pageout_wanted
          else ignore (Waitq.wait_timeout kctx.Kctx.pageout_wanted ~timeout:backoff)
        end
        else Waitq.wait kctx.Kctx.pageout_wanted;
        loop ()
      in
      loop ())
