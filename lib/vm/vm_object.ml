open Vm_types
module Port = Mach_ipc.Port

let make kctx ~size ~pager ~temporary =
  Counters.incr kctx.Kctx.stats s_objects_created;
  {
    obj_id = Kctx.fresh_obj_id kctx;
    obj_size = size;
    pager;
    obj_pages = Hashtbl.create 16;
    ref_count = 1;
    can_persist = false;
    backing = None;
    temporary;
    obj_alive = true;
    shadowers = [];
    cow_next = 0;
  }

let create_anonymous kctx ~size = make kctx ~size ~pager:No_pager ~temporary:true

let create_shadow kctx ~backs ~offset ~size =
  backs.ref_count <- backs.ref_count + 1;
  let obj = make kctx ~size ~pager:No_pager ~temporary:true in
  obj.backing <- Some { back_obj = backs; back_offset = offset };
  backs.shadowers <- obj :: backs.shadowers;
  obj

let find_by_port kctx port = Hashtbl.find_opt kctx.Kctx.objects_by_port (Port.id port)

(* The cache of unreferenced-but-persisting objects is an LRU: revival
   removes in O(1) via the obj_id index, insertion at the tail evicts
   the coldest entries past the cap (eviction = real termination). *)
module Dlist = Mach_util.Dlist

let cache_remove kctx obj =
  match Hashtbl.find_opt kctx.Kctx.cached_index obj.obj_id with
  | Some node ->
    Dlist.remove kctx.Kctx.cached_objects node;
    Hashtbl.remove kctx.Kctx.cached_index obj.obj_id
  | None -> ()

let cache_is_member kctx obj = Hashtbl.mem kctx.Kctx.cached_index obj.obj_id

let create_external kctx ~memory_object ~size =
  match find_by_port kctx memory_object with
  | Some obj ->
    obj.ref_count <- obj.ref_count + 1;
    if obj.ref_count = 1 then
      (* Revived from the cache: §9's repeated-use win. *)
      cache_remove kctx obj;
    if size > obj.obj_size then obj.obj_size <- size;
    obj
  | None ->
    let pager =
      Pager
        {
          memory_object;
          request_port = None;
          name_port = None;
          initialized = false;
          init_wait = Mach_sim.Ivar.create ();
          is_default = false;
          pager_dead = false;
        }
    in
    let obj = make kctx ~size ~pager ~temporary:false in
    Hashtbl.replace kctx.Kctx.objects_by_port (Port.id memory_object) obj;
    obj

let reference obj = obj.ref_count <- obj.ref_count + 1

let destroy_pages kctx obj =
  let rec drain () =
    let pages = Hashtbl.fold (fun _ p acc -> p :: acc) obj.obj_pages [] in
    match pages with
    | [] -> ()
    | _ ->
      List.iter
        (fun p ->
          (* Speculative cluster placeholders have no waiters and no
             data coming that anyone cares about: drop them instead of
             stalling teardown until the reclaim timer. *)
          if p.p_state = Speculative then Vm_page.release_placeholder kctx p
          else begin
            Vm_page.wait_unbusy p;
            (* The page may have been freed or renamed while we waited. *)
            if p.p_obj == obj && Hashtbl.mem obj.obj_pages p.p_offset then Vm_page.free kctx p
          end)
        pages;
      drain ()
  in
  drain ()

let lookup_chain obj ~offset =
  let rec walk cur off depth =
    match Vm_page.lookup cur ~offset:off with
    | Some page -> Some (page, cur, depth)
    | None -> (
      match cur.backing with
      | Some { back_obj; back_offset } -> walk back_obj (off + back_offset) (depth + 1)
      | None -> None)
  in
  walk obj offset 0

let chain_has_pager obj ~offset =
  let rec walk cur off =
    match cur.pager with
    | Pager _ -> Some (cur, off)
    | No_pager -> (
      match cur.backing with
      | Some { back_obj; back_offset } -> walk back_obj (off + back_offset)
      | None -> None)
  in
  walk obj offset

let chain_depth obj =
  let rec go acc = function
    | { backing = Some { back_obj; _ }; _ } -> go (acc + 1) back_obj
    | _ -> acc
  in
  go 0 obj

(* Splice out one collapsible backing object; true if progress was
   made. A backing object is collapsible when this object is its only
   user and it is anonymous and temporary: no manager owns the bytes,
   so no paging traffic can be in flight (a binding never goes back to
   [No_pager]). Surviving pages move up with their hardware
   translations intact (see {!Vm_page.rename}): every mapper reached
   them through [obj] at the same offset, read-only. *)
let collapse_once kctx obj =
  match obj.backing with
  | Some { back_obj = b; back_offset = delta } when
      b.ref_count = 1 && b.temporary && b.obj_alive
      && (match b.pager with No_pager -> true | Pager _ -> false) ->
    let pages = Hashtbl.fold (fun _ p acc -> p :: acc) b.obj_pages [] in
    List.iter
      (fun (page : page) ->
        if busy page then ()
        else begin
          let up_offset = page.p_offset - delta in
          if
            up_offset >= 0
            && up_offset < Kctx.round_page kctx obj.obj_size
            && not (Hashtbl.mem obj.obj_pages up_offset)
          then Vm_page.rename page obj ~offset:up_offset
          else
            (* Shadowed above (or out of view): the copy below is
               unreachable and can go. *)
            Vm_page.free kctx page
        end)
      pages;
    if Hashtbl.length b.obj_pages = 0 then begin
      (* Splice: obj inherits b's backing (and its reference). *)
      obj.backing <-
        (match b.backing with
        | Some { back_obj = bb; back_offset = bd } ->
          bb.shadowers <- obj :: List.filter (fun s -> s != b) bb.shadowers;
          Some { back_obj = bb; back_offset = delta + bd }
        | None -> None);
      b.shadowers <- [];
      b.obj_alive <- false;
      b.ref_count <- 0;
      Counters.incr kctx.Kctx.stats s_collapses;
      true
    end
    else false (* busy pages remain; try again another time *)
  | Some _ | None -> false

let collapse kctx obj =
  if kctx.Kctx.enable_collapse then
    while collapse_once kctx obj do
      ()
    done

let rec deallocate kctx obj =
  if obj.ref_count <= 0 then invalid_arg "Vm_object.deallocate: no references";
  obj.ref_count <- obj.ref_count - 1;
  if obj.ref_count = 0 then begin
    let cacheable =
      obj.can_persist && (match obj.pager with Pager p -> not p.is_default | No_pager -> false)
    in
    if cacheable then begin
      let node = Dlist.node obj in
      Hashtbl.replace kctx.Kctx.cached_index obj.obj_id node;
      Dlist.push_back kctx.Kctx.cached_objects node;
      (* LRU cap: terminate the coldest entries past the limit. *)
      while Dlist.length kctx.Kctx.cached_objects > kctx.Kctx.object_cache_cap do
        match Dlist.pop_front kctx.Kctx.cached_objects with
        | None -> assert false
        | Some node ->
          let victim = Dlist.value node in
          Hashtbl.remove kctx.Kctx.cached_index victim.obj_id;
          Counters.incr kctx.Kctx.stats s_object_cache_evictions;
          terminate kctx victim
      done
    end
    else terminate kctx obj
  end

(* Terminate a zero-referenced object: run the installed terminator,
   release its backing reference, and — the copy engine's deallocate
   trigger — if the backing survives with exactly one live shadower,
   collapse from that shadower. A fork/exit generation ends here, not
   at some future write fault, so chains stop accreting depth. *)
and terminate kctx obj =
  let backing = obj.backing in
  kctx.Kctx.obj_terminator kctx obj;
  match backing with
  | Some { back_obj; _ } ->
    back_obj.shadowers <- List.filter (fun s -> s != obj) back_obj.shadowers;
    deallocate kctx back_obj;
    if back_obj.obj_alive && back_obj.ref_count = 1 then begin
      match List.filter (fun s -> s.obj_alive) back_obj.shadowers with
      | [ survivor ] -> collapse kctx survivor
      | _ -> ()
    end
  | None -> ()

let resident_count obj = Hashtbl.length obj.obj_pages

let pp fmt obj =
  let pager =
    match obj.pager with
    | No_pager -> "anon"
    | Pager p -> if p.is_default then "default" else "external"
  in
  Format.fprintf fmt "obj#%d{%s size=%d resident=%d refs=%d%s%s}" obj.obj_id pager obj.obj_size
    (resident_count obj) obj.ref_count
    (if obj.backing = None then "" else " shadow")
    (if obj.obj_alive then "" else " dead")
