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
    cache_node = None;
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
   removes in O(1) through the object's own node, insertion at the tail
   evicts the coldest entries past the cap (eviction = real
   termination). *)
module Dlist = Mach_util.Dlist

let cache_remove kctx obj =
  Option.iter (Dlist.remove kctx.Kctx.cached_objects) obj.cache_node;
  obj.cache_node <- None

let cache_is_member obj = Option.is_some obj.cache_node

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
          is_default = false;
          pager_dead = false;
          shipped = Offsets.empty;
        }
    in
    let obj = make kctx ~size ~pager ~temporary:false in
    Hashtbl.replace kctx.Kctx.objects_by_port (Port.id memory_object) obj;
    obj

type found = Resident of page * int * bool | Paged of obj * int | Nowhere

(* Whether [b]'s page at [offset], found by a walk coming down from
   [from], is visible through [from] alone. [b] must be a live,
   pager-less, anonymous temporary (no manager owns the bytes) with no
   reference but its shadowers', and every other shadower must already
   hold its own resident page at the matching offset: those shadowers
   hide [b]'s page from everything above them. The coverage check runs
   only below an object with more than one reference. *)
let private_below b ~from ~offset =
  b.temporary && b.obj_alive && b.pager = No_pager
  && (b.ref_count = 1
     || b.ref_count = List.length b.shadowers
        && List.for_all
             (fun s ->
               s == from
               ||
               match s.backing with
               | Some { back_offset; _ } -> (
                 match Vm_page.lookup s ~offset:(offset - back_offset) with
                 | Some p -> p.p_state = Resident
                 | None -> false)
               | None -> false)
             b.shadowers)

let walk ?(steal = false) obj ~offset =
  let rec go cur off depth sole =
    match Vm_page.lookup cur ~offset:off with
    | Some page -> Resident (page, depth, sole)
    | None when Pager_client.pager_holds cur ~offset:off -> Paged (cur, off)
    | None -> (
      match cur.backing with
      | Some { back_obj = b; back_offset } ->
        let off = off + back_offset in
        go b off (depth + 1) (sole && private_below b ~from:cur ~offset:off)
      | None -> Nowhere)
  in
  go obj offset 0 steal

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
    List.iter
      (fun (page : page) ->
        if Vm_page.may_move page then begin
          let up_offset = page.p_offset - delta in
          if
            up_offset >= 0
            && up_offset < Kctx.round_page kctx obj.obj_size
            && not
                 (Hashtbl.mem obj.obj_pages up_offset
                 || Pager_client.pager_holds obj ~offset:up_offset)
          then Vm_page.rename page obj ~offset:up_offset
          else
            (* Shadowed above, resident or held by obj's pager (or
               out of view): the copy below is unreachable and can go. *)
            Vm_page.free kctx page
        end)
      (Vm_page.pages_between b ~lo:0 ~hi:max_int);
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
    else false (* busy, wired or pinned pages remain; try again another time *)
  | Some _ | None -> false

let rec collapse kctx obj =
  if kctx.Kctx.enable_collapse && collapse_once kctx obj then collapse kctx obj

let rec deallocate kctx obj =
  if obj.ref_count <= 0 then invalid_arg "Vm_object.deallocate: no references";
  obj.ref_count <- obj.ref_count - 1;
  if obj.ref_count = 0 then begin
    let cacheable =
      obj.can_persist && (match obj.pager with Pager p -> not p.is_default | No_pager -> false)
    in
    if cacheable then begin
      let node = Dlist.node obj in
      obj.cache_node <- Some node;
      Dlist.push_back kctx.Kctx.cached_objects node;
      (* LRU cap: terminate the coldest entries past the limit. *)
      while Dlist.length kctx.Kctx.cached_objects > kctx.Kctx.object_cache_cap do
        match Dlist.pop_front kctx.Kctx.cached_objects with
        | None -> assert false
        | Some node ->
          let victim = Dlist.value node in
          victim.cache_node <- None;
          Counters.incr kctx.Kctx.stats s_object_cache_evictions;
          terminate kctx victim
      done
    end
    else terminate kctx obj
  end

(* Terminate a zero-referenced object: release its pages and ports
   ({!Pager_client.terminate}), then its backing reference, and — the
   copy engine's deallocate trigger — if the backing survives with
   exactly one live shadower, collapse from that shadower. A fork/exit
   generation ends here, not at some future write fault, so chains stop
   accreting depth. *)
and terminate kctx obj =
  let backing = obj.backing in
  Pager_client.terminate kctx obj;
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
