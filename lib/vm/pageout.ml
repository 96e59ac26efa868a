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
      if page.wire_count > 0 || busy page then Page_queues.activate queues page
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

(* Grow a reclaim seed into a run of adjacent same-object dirty pages —
   the write-side mirror of read clustering. Neighbors qualify whatever
   queue they are on, as long as they are unwired, not busy, unreferenced
   and dirty; the run is clamped to the cluster window. *)
let collect_run kctx seed =
  let ps = kctx.Kctx.page_size in
  let window = Kctx.cluster_pages in
  let obj = seed.p_obj in
  let eligible q =
    q.wire_count = 0
    && (not (busy q))
    && (not (Phys_mem.referenced kctx.Kctx.mem q.frame))
    && (Vm_page.harvest_bits kctx q;
        q.dirty)
  in
  let back = ref [] in
  let n = ref 1 in
  let off = ref (seed.p_offset - ps) in
  (try
     while !n < window && !off >= 0 do
       match Vm_page.lookup obj ~offset:!off with
       | Some q when eligible q ->
         back := q :: !back;
         incr n;
         off := !off - ps
       | _ -> raise Exit
     done
   with Exit -> ());
  let fwd = ref [] in
  let off = ref (seed.p_offset + ps) in
  (try
     while !n < window do
       match Vm_page.lookup obj ~offset:!off with
       | Some q when eligible q ->
         fwd := q :: !fwd;
         incr n;
         off := !off + ps
       | _ -> raise Exit
     done
   with Exit -> ());
  !back @ (seed :: List.rev !fwd)

(* Cap on pages busy-cleaning at once. Without it a pass over an
   all-dirty inactive queue would launder the whole queue, and the
   manager's message queue grows without bound — refaulting
   data_requests then wait behind seconds of queued writes and abort.
   Two cluster windows keep the disk pipelined while bounding the
   backlog a fault can land behind. *)
let laundry_limit kctx = max (2 * Kctx.cluster_pages) (Kctx.free_target kctx)

(* Returns the number of frames actually freed. Dirty pages are
   laundered — shipped to their manager in run-sized pager_data_writes
   and kept resident busy-cleaning — so they do not count as freed here;
   their frames come back at release_write (or rescue) time. Laundered
   pages do count toward the pass target, though: their frames are
   already on the way. *)
let reclaim_inactive kctx ~want =
  let queues = kctx.Kctx.queues in
  let freed = ref 0 in
  let laundered = ref 0 in
  let scanned = ref 0 in
  let budget = Page_queues.inactive_count queues in
  while !freed + !laundered < want && !scanned < budget do
    match Page_queues.oldest_inactive queues with
    | None -> scanned := budget
    | Some page ->
      incr scanned;
      if page.wire_count > 0 || busy page then Page_queues.activate queues page
      else if Phys_mem.referenced kctx.Kctx.mem page.frame then begin
        (* Used while inactive: reactivate. *)
        Counters.incr kctx.Kctx.stats s_reactivations;
        Phys_mem.set_referenced kctx.Kctx.mem page.frame false;
        Page_queues.activate queues page
      end
      else begin
        Vm_page.harvest_bits kctx page;
        if page.dirty then begin
          if Page_queues.laundry_count queues >= laundry_limit kctx then
            (* Enough in flight; end the pass and let releases drain. *)
            scanned := budget
          else begin
            (match page.p_obj.pager with
            | No_pager -> Pager_client.bind_to_default_pager kctx page.p_obj
            | Pager _ -> ());
            match page.p_obj.pager with
            | Pager _ ->
              let run = collect_run kctx page in
              laundered := !laundered + List.length run;
              Pager_client.write_run kctx run ~dispose:Dispose_keep
            | No_pager ->
              (* No default pager registered: cannot clean; keep active. *)
              Page_queues.activate queues page
          end
        end
        else begin
          Vm_page.free kctx page;
          incr freed
        end
      end
  done;
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
          let freed = run_once kctx in
          (* With laundry in flight (or progress just made), back off
             briefly and re-check — a release will free frames, and the
             low-watermark check in alloc_frame wakes us early. When
             nothing is reclaimable and nothing is in flight, block
             until an allocator or a release changes the world: a
             demand-driven daemon keeps the event queue empty at
             quiescence. *)
          if freed = 0 && Page_queues.laundry_count kctx.Kctx.queues = 0 then
            Waitq.wait kctx.Kctx.pageout_wanted
          else ignore (Waitq.wait_timeout kctx.Kctx.pageout_wanted ~timeout:backoff)
        end
        else Waitq.wait kctx.Kctx.pageout_wanted;
        loop ()
      in
      loop ())
