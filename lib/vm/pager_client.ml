open Vm_types
module Engine = Mach_sim.Engine
module Port = Mach_ipc.Port
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport
module Message = Mach_ipc.Message
module Prot = Mach_hw.Prot
module Phys_mem = Mach_hw.Phys_mem
module Pmap = Mach_hw.Pmap

let log = Logs.Src.create "mach.pager" ~doc:"external pager protocol"

module Log = (val Logs.src_log log)

(* Fire-and-forget kernel send; the protocol is asynchronous. A full
   queue must not deadlock the kernel, so delivery retries run in a
   detached thread. *)
let kernel_send ?(retry_thread = "kernel-send-retry") kctx msg =
  match Transport.send kctx.Kctx.node ~timeout:0.0 msg with
  | Ok () -> Ok ()
  | Error Transport.Send_timed_out ->
    Engine.spawn kctx.Kctx.engine ~name:retry_thread (fun () ->
        match Transport.send kctx.Kctx.node msg with
        | Ok () | Error _ -> ());
    Ok ()
  | Error Transport.Send_invalid_port ->
    Log.debug (fun m -> m "send to dead port dropped");
    Error ()

let send kctx msg = ignore (kernel_send kctx msg)

let get_pager obj =
  match obj.pager with
  | Pager p -> p
  | No_pager -> invalid_arg "Pager_client: object has no pager"

(* --- write-holding bookkeeping ------------------------------------------
   Defined ahead of the request path because the pager-death handler
   (registered at initialization time) rescues outstanding holdings. *)

let fresh_write_id kctx =
  let id = kctx.Kctx.next_write_id in
  kctx.Kctx.next_write_id <- id + 1;
  id

(* [page] is still [obj]'s page at its offset: not freed, renamed, or
   replaced while we slept. A holding's busy-cleaning pages cannot be
   freed out from under it, but object teardown detaches structures. *)
let resident obj page =
  match Hashtbl.find_opt obj.obj_pages page.p_offset with
  | Some p -> p == page
  | None -> false

(* Close a holding: cancel its rescue timer, take it out of [holdings]
   and free the frames it parked. Release and rescue both close the
   holding, so a holding is released or rescued at most once. *)
let close kctx (h : holding) =
  Engine.cancel kctx.Kctx.engine h.h_timer;
  Hashtbl.remove kctx.Kctx.holdings h.h_write_id;
  List.iter (Kctx.free_frame kctx) h.h_frames;
  h.h_frames <- []

(* §6.2.2 double paging: the manager sat on the data past the release
   timeout. Push the run's contents to the default pager's backing store
   and take the frames back. Cleaning pages lose their frames — waiters
   wake and re-resolve against the manager, which still owes the data it
   never released; a wired page keeps its frame. Runs in a timer
   callback, so nothing here may block: mappings were removed at launder
   time, making every free charge-less. *)
let rescue kctx (h : holding) =
  let pages = List.filter (resident h.h_obj) h.h_pages in
  Counters.add kctx.Kctx.stats s_pageout_to_default (List.length pages + List.length h.h_frames);
  (match kctx.Kctx.rescue_writer with Some w -> w h.h_data | None -> ());
  close kctx h;
  List.iter
    (fun page ->
      Vm_page.cleaned page;
      if Vm_page.may_free page then Vm_page.free kctx page
      else Page_queues.remove kctx.Kctx.queues page)
    pages;
  h.h_pages <- []

let release_write kctx ~write_id =
  match Hashtbl.find_opt kctx.Kctx.holdings write_id with
  | None -> () (* already rescued or bogus id *)
  | Some h ->
    close kctx h;
    (* Partial release: the run's pages are handled one at a time, so
       under continued pressure the head of the run is freed and the
       tail stays clean-resident once the watermark is met again. A
       wired page always stays, off the replacement queues. *)
    List.iter
      (fun page ->
        if resident h.h_obj page then begin
          page.dirty <- false;
          Vm_page.cleaned page;
          match h.h_dispose with
          | _ when not (Vm_page.may_free page) -> Page_queues.remove kctx.Kctx.queues page
          | Dispose_free -> Vm_page.free kctx page
          | Dispose_keep ->
            if Kctx.need_pageout kctx then Vm_page.free kctx page
            else Page_queues.deactivate kctx.Kctx.queues page
        end)
      h.h_pages;
    h.h_pages <- []

(* --- pager death --------------------------------------------------------
   The single pager-death story: when a manager's object port dies,
   every outstanding request on that object resolves deterministically,
   right now — zero-fill for anonymous-style objects (default-pager
   backed or temporary: their initial contents are zero by definition),
   fault error for file-backed ones — instead of each caller waiting out
   its own timeout. Future faults short-circuit on [pager_dead]. *)
let pager_died kctx obj =
  match obj.pager with
  | No_pager -> ()
  | Pager p when p.pager_dead -> ()
  | Pager p ->
    p.pager_dead <- true;
    let stats = kctx.Kctx.stats in
    Counters.incr stats s_pager_deaths;
    Log.warn (fun m -> m "pager died for object %d" obj.obj_id);
    let anonymous = p.is_default || obj.temporary in
    List.iter
      (fun page ->
        match page.p_state with
        | Speculative ->
          (* Placeholder no faulter waits on: reclaim. *)
          Vm_page.release_placeholder kctx page
        | Demanded when anonymous ->
          (* The frame is already zero-filled, as for data_unavailable. *)
          Counters.incr stats s_zero_fill;
          Counters.incr stats s_death_zero_fills;
          Vm_page.resolve kctx page
        | Demanded ->
          (* Waiters fail the fault, as after a slow-path timeout. *)
          Counters.incr stats s_death_errors;
          Vm_page.fail page
        | Resident | Failed | Cleaning ->
          if (not (Prot.equal page.page_lock Prot.none)) || page.unlock_requested then
            (* The unlock can never arrive; wake waiters so the fault
               path re-checks against the dead pager. *)
            Mach_sim.Waitq.broadcast page.busy_wait)
      (Vm_page.pages_between obj ~lo:0 ~hi:max_int);
    (* Outstanding data_writes will never be released: run the §6.2.2
       rescue immediately instead of waiting out the timer, oldest write
       first (each rescue spawns a thread and frees frames). *)
    Hashtbl.fold (fun _ h acc -> if h.h_obj == obj then h :: acc else acc) kctx.Kctx.holdings []
    |> List.sort (fun a b -> compare a.h_write_id b.h_write_id)
    |> List.iter (rescue kctx)

let make_request_ports kctx obj p =
  let ctx = kctx.Kctx.ctx in
  let request = Port.create ctx ~home:kctx.Kctx.host ~backlog:256 ~drop:Message.discard () in
  let name = Port.create ctx ~home:kctx.Kctx.host ~drop:Message.discard () in
  let request_name = Port_space.insert kctx.Kctx.kspace request Message.Receive_right in
  Port_space.enable kctx.Kctx.kspace request_name;
  ignore (Port_space.insert kctx.Kctx.kspace name Message.Receive_right);
  p.request_port <- Some request;
  p.name_port <- Some name;
  Hashtbl.replace kctx.Kctx.objects_by_request (Port.id request) obj;
  (request, name)

let ensure_initialized kctx obj =
  match obj.pager with
  | No_pager | Pager { request_port = Some _; _ } -> ()
  | Pager p ->
    let request, name = make_request_ports kctx obj p in
    (* Fires immediately if the manager is already gone. *)
    Port.on_death p.memory_object (fun () -> pager_died kctx obj);
    send kctx
      (Pager_iface.encode_k2m ~reply:None
         (Pager_iface.Init { memory_object = p.memory_object; request; name })
         ~dest:p.memory_object)

let request_port p =
  match p.request_port with Some r -> r | None -> invalid_arg "Pager_client: not initialized"

let send_data_request kctx p ~offset ~length ~desired_access =
  let request = request_port p in
  Counters.incr kctx.Kctx.stats s_data_requests;
  Mach_sim.Trace.point kctx.Kctx.trace ~subsystem:"vm" "data_request";
  send kctx
    (Pager_iface.encode_k2m ~reply:None
       (Pager_iface.Data_request
          { memory_object = p.memory_object; request; offset; length; desired_access })
       ~dest:p.memory_object)

let rerequest kctx page ~desired_access =
  let p = get_pager page.p_obj in
  send_data_request kctx p ~offset:page.p_offset ~length:kctx.Kctx.page_size ~desired_access

(* Mach's vm_external: a shadow's default pager holds what was shipped to it. *)
let pager_holds obj ~offset =
  match obj.pager with
  | No_pager -> false
  | Pager p -> (not p.is_default) || obj.backing = None || Offsets.mem offset p.shipped

let request_cluster kctx obj ~offset ~desired_access ~window =
  let p = get_pager obj in
  ensure_initialized kctx obj;
  let ps = kctx.Kctx.page_size in
  (* The demanded page blocks for a frame like any hard fault. While we
     slept another faulter may have installed the page; hand theirs back
     and let the caller wait on it. *)
  let frame = Kctx.alloc_frame kctx ~privileged:p.is_default in
  match Vm_page.lookup obj ~offset with
  | Some page ->
    Kctx.free_frame kctx frame;
    page
  | None ->
    let page = Vm_page.insert kctx obj ~offset ~frame ~state:Demanded in
    (* Cluster-in: extend the request over forward-adjacent pages that
       are not resident, as long as a free frame comes without waiting
       and the free count stays above the low watermark. Memory
       pressure alone does not stop it — a paging workload sits at the
       free target all the time — but draining to the reserve would
       deadlock: the speculative frames come from [try_alloc_frame],
       which never wakes the pageout daemon, so the next fault blocks
       in [alloc_frame] with one wake-up. If that daemon pass only ages
       pages (second chance) it frees nothing, has no laundry in flight
       and sleeps until the next allocation, which is the faulter
       already asleep on [free_wait]. The placeholders are
       [Speculative] — no faulter waits on them — so they can be
       reclaimed if the manager never fills them. *)
    let obj_end = Kctx.round_page kctx obj.obj_size in
    let spec = ref [] in
    let n = ref 1 in
    (try
       while !n < window do
         let off = offset + (!n * ps) in
         if off >= obj_end
            || Phys_mem.free_frames kctx.Kctx.mem <= Kctx.free_low_watermark kctx
            || Vm_page.lookup obj ~offset:off <> None
            || not (pager_holds obj ~offset:off)
         then raise Exit;
         match Kctx.try_alloc_frame kctx ~privileged:false with
         | None -> raise Exit
         | Some f ->
           spec := Vm_page.insert kctx obj ~offset:off ~frame:f ~state:Speculative :: !spec;
           incr n
       done
     with Exit -> ());
    let extra = List.length !spec in
    Counters.add kctx.Kctx.stats s_cluster_pages extra;
    if extra > 0 then begin
      (* Reclaim unfilled placeholders after the pager timeout so a
         manager that answers partially (or not at all) cannot pin
         frames forever. [release_placeholder] no-ops on pages that were
         filled or promoted to demanded pages in the meantime. *)
      let doomed = !spec in
      Engine.schedule kctx.Kctx.engine
        ~at:(Engine.now kctx.Kctx.engine +. kctx.Kctx.pager_timeout_us)
        (fun () -> List.iter (Vm_page.release_placeholder kctx) doomed)
    end;
    send_data_request kctx p ~offset ~length:((1 + extra) * ps) ~desired_access;
    page

let bind_to_default_pager kctx obj =
  match obj.pager with
  | Pager _ -> ()
  | No_pager ->
    let dp =
      match kctx.Kctx.default_pager_port with
      | Some p -> p
      | None -> failwith "Pager_client: no default pager registered"
    in
    let ctx = kctx.Kctx.ctx in
    (* The kernel creates the memory object and hands its receive right
       to the default pager via pager_create. *)
    let memory_object = Port.create ctx ~home:(Port.home dp) ~backlog:256 ~drop:Message.discard () in
    let p =
      {
        memory_object;
        request_port = None;
        name_port = None;
        is_default = true;
        pager_dead = false;
        shipped = Offsets.empty;
      }
    in
    obj.pager <- Pager p;
    Hashtbl.replace kctx.Kctx.objects_by_port (Port.id memory_object) obj;
    let request, name = make_request_ports kctx obj p in
    send kctx
      (Pager_iface.encode_k2m ~reply:None
         (Pager_iface.Create { new_memory_object = memory_object; request; name; size = obj.obj_size })
         ~dest:dp)

(* --- pager_data_write: every dirty page leaves for its manager here ---- *)

(* Pageout, a manager's flush or clean, and object termination all ship
   runs of adjacent dirty pages, ONE pager_data_write per run (the
   write-side mirror of read clustering). Each caller picks the seed and
   says which neighbours qualify; [run_from] decides what the run is. *)
let run_from kctx seed ~back ~eligible =
  let ps = kctx.Kctx.page_size in
  (* Grow one page at a time by [step] from [off]; [acc] comes out in
     the reverse of the growth order. *)
  let rec grow acc n off step =
    if n >= Kctx.cluster_pages || off < 0 then (acc, n)
    else
      match Vm_page.lookup seed.p_obj ~offset:off with
      | Some q when eligible q -> grow (q :: acc) (n + 1) (off + step) step
      | _ -> (acc, n)
  in
  let below, n = if back then grow [] 1 (seed.p_offset - ps) (-ps) else ([], 1) in
  let above, _ = grow [] n (seed.p_offset + ps) ps in
  below @ (seed :: List.rev above)

(* Snapshot a run and ship it: one holding record, one rescue timer, one
   pager_data_write. The run is non-empty, same-object, offset-sorted
   and offset-adjacent, and each page is already out of other paths'
   reach (busy-cleaning, or detached). Kept pages stay in the holding
   until the manager's release; a [detached] run parks only its frames
   there, in [h_frames]. *)
let ship_run kctx run ~dispose ~detached =
  let obj = (List.hd run).p_obj and offset = (List.hd run).p_offset in
  let p = get_pager obj in
  let ps = kctx.Kctx.page_size in
  Counters.add kctx.Kctx.stats s_pageouts (List.length run);
  (* Invalidate mappings (this may charge map-op time and block), then
     snapshot the run contents. *)
  List.iter (fun page -> Vm_page.remove_all_mappings kctx page) run;
  let data = Bytes.create (List.length run * ps) in
  List.iteri
    (fun i page -> Bytes.blit (Phys_mem.data kctx.Kctx.mem page.frame) 0 data (i * ps) ps)
    run;
  let write_id = fresh_write_id kctx in
  let h =
    {
      h_write_id = write_id;
      h_obj = obj;
      h_data = data;
      h_pages = (if detached then [] else run);
      h_frames = (if detached then List.map (fun page -> page.frame) run else []);
      h_dispose = dispose;
      h_timer = Engine.no_timer;
    }
  in
  Hashtbl.replace kctx.Kctx.holdings write_id h;
  if p.is_default then
    List.iter (fun page -> p.shipped <- Offsets.add page.p_offset p.shipped) run;
  Counters.incr kctx.Kctx.stats s_data_writes;
  h.h_timer <-
    Engine.timer kctx.Kctx.engine
      ~at:(Engine.now kctx.Kctx.engine +. Kctx.data_write_release_timeout_us)
      (fun () -> rescue kctx h);
  send kctx
    (Pager_iface.encode_k2m ~reply:p.request_port
       (Pager_iface.Data_write { memory_object = p.memory_object; offset; data; write_id })
       ~dest:p.memory_object)

(* Launder a run: the pages stay resident and busy-cleaning until the
   manager's release. The whole run is marked Cleaning before anything
   can block, so a concurrent faulter waits on the busy machinery
   instead of racing. *)
let write_run kctx pages ~dispose =
  Counters.add kctx.Kctx.stats s_laundered (List.length pages);
  List.iter (Vm_page.launder kctx) pages;
  ship_run kctx pages ~dispose ~detached:false

let send_unlock kctx obj ~offset ~length ~desired_access =
  let p = get_pager obj in
  let request = request_port p in
  Counters.incr kctx.Kctx.stats s_unlock_requests;
  send kctx
    (Pager_iface.encode_k2m ~reply:None
       (Pager_iface.Data_unlock
          { memory_object = p.memory_object; request; offset; length; desired_access })
       ~dest:p.memory_object)

(* --- manager→kernel handling ------------------------------------------ *)

let object_of_request_port kctx port =
  Hashtbl.find_opt kctx.Kctx.objects_by_request (Port.id port)

let apply_lock kctx page lock =
  page.page_lock <- lock;
  (* Reduce hardware protections: forbidden accesses must trap. *)
  List.iter
    (fun (pmap, vpn) ->
      match Pmap.lookup pmap ~vpn with
      | Some (_, cur) -> Pmap.protect pmap ~vpn ~prot:(Prot.diff cur lock)
      | None -> ())
    page.mappings;
  ignore kctx;
  if page.unlock_requested && not (Prot.can_write lock) then page.unlock_requested <- false;
  (* Faulters waiting for an unlock re-check. *)
  Mach_sim.Waitq.broadcast page.busy_wait

let fill_provided kctx obj ~offset ~data ~lock_value =
  let ps = kctx.Kctx.page_size in
  let stats = kctx.Kctx.stats in
  Counters.incr stats s_data_provided;
  (* Partial trailing pages are discarded (§3.4.1). *)
  let whole_pages = Bytes.length data / ps in
  for i = 0 to whole_pages - 1 do
    let off = offset + (i * ps) in
    let fill frame = Phys_mem.write kctx.Kctx.mem frame ~off:0 ~pos:(i * ps) ~len:ps data in
    match Vm_page.lookup obj ~offset:off with
    | Some ({ p_state = Demanded | Speculative | Failed; _ } as page) ->
      fill page.frame;
      page.page_lock <- lock_value;
      Counters.incr stats s_pageins;
      Vm_page.resolve kctx page
    | Some page ->
      (* Data for a page the kernel already has: the bytes are stale
         (ours may be dirtier) but the lock is authoritative — the
         manager may be answering a lock-change request it saw as a
         re-request (the two can cross on the wire). Dropping the lock
         here strands any faulter waiting for it. *)
      apply_lock kctx page lock_value
    | None -> (
      (* Unsolicited pre-paged data from an advanced manager: accept it
         if a frame is available without waiting. *)
      match Kctx.try_alloc_frame kctx ~privileged:false with
      | Some frame ->
        let page = Vm_page.insert kctx obj ~offset:off ~frame ~state:Resident in
        fill frame;
        page.page_lock <- lock_value;
        Counters.incr stats s_pageins;
        Page_queues.activate kctx.Kctx.queues page
      | None -> ())
  done

let data_unavailable kctx obj ~offset ~size =
  let ps = kctx.Kctx.page_size in
  let stats = kctx.Kctx.stats in
  Counters.incr stats s_data_unavailable;
  let pages = (size + ps - 1) / ps in
  for i = 0 to pages - 1 do
    let off = offset + (i * ps) in
    match Vm_page.lookup obj ~offset:off with
    | Some ({ p_state = Demanded | Speculative | Failed; _ } as page) ->
      (* Frame is already zero-filled. *)
      Counters.incr stats s_zero_fill;
      Vm_page.resolve kctx page
    | Some _ | None -> ()
  done

(* What is left of an offset-sorted page list past a shipped run. *)
let past run pages =
  let last = (List.nth run (List.length run - 1)).p_offset in
  let rec drop = function page :: rest when page.p_offset <= last -> drop rest | l -> l in
  drop pages

(* A manager's flush ([keep] false) or clean ([keep] true) of a range,
   answered with lock_completed once every dirty run has shipped. *)
let flush_range kctx obj ~offset ~length ~keep =
  let ps = kctx.Kctx.page_size in
  let hi = offset + length in
  let dispose = if keep then Dispose_keep else Dispose_free in
  (* A run grows forward from its seed over dirty pages below [hi] that
     the manager may take. A pinned page ends it: the walk then comes to
     that page and waits on it. A wired page's data goes back like any
     other, but its frame stays (the release keeps it), as in Mach's
     memory_object_lock_request. *)
  let eligible q =
    q.p_offset < hi
    && Vm_page.may_revoke q
    &&
    (Vm_page.harvest_bits kctx q;
     q.dirty)
  in
  (* Walk the sorted range, shipping each run as one pager_data_write.
     Shipping can block and the world moves, so each page is re-checked
     as the walk reaches it, and the walk drops the run's pages: a
     release can land while [write_run] blocks, leaving them neither
     busy nor gone. *)
  let rec walk = function
    | [] -> ()
    | page :: rest when busy page || not (resident obj page) -> walk rest
    | page :: rest when not (Vm_page.may_revoke page) ->
      (* Pinned: a faulter still has to use this page's data or the
         translation it just validated. Let it commit before revoking —
         flushing inside that window starves write-shared hot pages (each
         kernel's grant revoked before use, forever). The last unpin
         broadcasts. *)
      Mach_sim.Waitq.wait page.busy_wait;
      walk (page :: rest)
    | page :: rest ->
      Vm_page.harvest_bits kctx page;
      if page.dirty then begin
        let run = run_from kctx page ~back:false ~eligible in
        if not keep then Counters.add kctx.Kctx.stats s_flushes (List.length run);
        write_run kctx run ~dispose;
        walk (past run rest)
      end
      else begin
        if (not keep) && Vm_page.may_free page then begin
          Counters.incr kctx.Kctx.stats s_flushes;
          Vm_page.free kctx page
        end;
        walk rest
      end
  in
  walk (Vm_page.pages_between obj ~lo:(offset land lnot (ps - 1)) ~hi);
  let p = get_pager obj in
  send kctx
    (Pager_iface.encode_k2m ~reply:p.request_port
       (Pager_iface.Lock_completed { memory_object = p.memory_object; offset; length })
       ~dest:p.memory_object)

let handle_manager_message kctx (msg : Message.t) =
  match Pager_iface.decode_m2k msg with
  | exception Pager_iface.Malformed reason ->
    Log.warn (fun m -> m "malformed manager message: %s" reason)
  | call -> (
    match object_of_request_port kctx msg.header.dest with
    | None -> Log.warn (fun m -> m "manager message for unknown request port")
    | Some obj -> (
      match call with
      | Pager_iface.Data_provided { offset; data; lock_value } ->
        fill_provided kctx obj ~offset ~data ~lock_value
      | Pager_iface.Data_unavailable { offset; size } -> data_unavailable kctx obj ~offset ~size
      | Pager_iface.Data_lock { offset; length; lock_value } ->
        let lo = offset land lnot (kctx.Kctx.page_size - 1) in
        List.iter
          (fun page -> apply_lock kctx page lock_value)
          (Vm_page.pages_between obj ~lo ~hi:(offset + length))
      | Pager_iface.Flush_request { offset; length } ->
        flush_range kctx obj ~offset ~length ~keep:false
      | Pager_iface.Clean_request { offset; length } ->
        flush_range kctx obj ~offset ~length ~keep:true
      | Pager_iface.Cache { may_cache } -> obj.can_persist <- may_cache
      | Pager_iface.Release_write { write_id } -> release_write kctx ~write_id))

(* --- termination -------------------------------------------------------- *)

(* Free every resident page, waiting out busy and pinned ones. *)
let destroy_pages kctx obj =
  let rec drain () =
    match Vm_page.pages_between obj ~lo:0 ~hi:max_int with
    | [] -> ()
    | pages ->
      List.iter
        (fun p ->
          (* Speculative cluster placeholders have no waiters and no
             data coming that anyone cares about: drop them instead of
             stalling teardown until the reclaim timer. *)
          if p.p_state = Speculative then Vm_page.release_placeholder kctx p
          else begin
            Vm_page.wait_unpinned p;
            (* The page may have been freed or renamed while we waited.
               Its wirings went with the map entries that held the
               object. *)
            if resident obj p then Vm_page.free kctx p
          end)
        pages;
      drain ()
  in
  drain ()

let terminate kctx obj =
  if obj.obj_alive then begin
    obj.obj_alive <- false;
    (* "The kernel releases the cached pages for that object, cleaning
       them as necessary" (§3.4): dirty pages go back to the manager
       before the ports die. Temporary objects are exempt — their
       contents need not outlive them, so cleaning would only ship
       garbage to the default pager. *)
    (match obj.pager with
    | Pager { request_port = Some _; _ } when not obj.temporary ->
      let eligible page =
        (not (busy page))
        &&
        (Vm_page.harvest_bits kctx page;
         page.dirty)
      in
      (* Teardown cannot wait for an untrusted manager's release: each
         run's page structures are detached before anything can block,
         so no other path finds them mid-teardown, and the holding
         parks only their frames. *)
      let rec walk = function
        | [] -> ()
        | page :: rest when resident obj page && eligible page ->
          let run = run_from kctx page ~back:false ~eligible in
          List.iter
            (fun page ->
              Page_queues.remove kctx.Kctx.queues page;
              Hashtbl.remove obj.obj_pages page.p_offset)
            run;
          ship_run kctx run ~dispose:Dispose_free ~detached:true;
          walk (past run rest)
        | _ :: rest -> walk rest
      in
      walk (Vm_page.pages_between obj ~lo:0 ~hi:max_int)
    | Pager _ | No_pager -> ());
    destroy_pages kctx obj;
    match obj.pager with
    | No_pager -> ()
    | Pager p ->
      Hashtbl.remove kctx.Kctx.objects_by_port (Port.id p.memory_object);
      (match p.request_port with
      | Some r ->
        Hashtbl.remove kctx.Kctx.objects_by_request (Port.id r);
        (match Port_space.name_of kctx.Kctx.kspace r with
        | Some n -> Port_space.deallocate kctx.Kctx.kspace n
        | None -> Port.destroy r)
      | None -> ());
      (match p.name_port with
      | Some n -> (
        match Port_space.name_of kctx.Kctx.kspace n with
        | Some nm -> Port_space.deallocate kctx.Kctx.kspace nm
        | None -> Port.destroy n)
      | None -> ())
  end
