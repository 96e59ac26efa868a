open Vm_types
module Waitq = Mach_sim.Waitq
module Pmap = Mach_hw.Pmap
module Phys_mem = Mach_hw.Phys_mem
module Prot = Mach_hw.Prot
module Machine = Mach_hw.Machine

let insert kctx obj ~offset ~frame ~state =
  if offset land (kctx.Kctx.page_size - 1) <> 0 then
    invalid_arg "Vm_page.insert: offset not page-aligned";
  if Hashtbl.mem obj.obj_pages offset then invalid_arg "Vm_page.insert: offset already cached";
  let page =
    {
      frame;
      p_obj = obj;
      p_offset = offset;
      wire_count = 0;
      p_state = state;
      busy_wait = Waitq.create ();
      page_lock = Prot.none;
      unlock_requested = false;
      dirty = false;
      q_state = Q_none;
      q_node = None;
      mappings = [];
      grant_hold = 0;
    }
  in
  Hashtbl.replace obj.obj_pages offset page;
  page

let lookup obj ~offset = Hashtbl.find_opt obj.obj_pages offset

let wait_unbusy page =
  while busy page do
    Waitq.wait page.busy_wait
  done

(* Every transition: leaving a busy state wakes the page's waiters. *)
let set_state page state =
  let was_busy = busy page in
  page.p_state <- state;
  if was_busy then Waitq.broadcast page.busy_wait

let resolve kctx page =
  assert (page.p_state <> Resident && page.p_state <> Cleaning);
  set_state page Resident;
  Page_queues.activate kctx.Kctx.queues page

let fail page =
  assert (page.p_state = Demanded);
  set_state page Failed

let demand page =
  assert (page.p_state = Speculative);
  set_state page Demanded

let launder kctx page =
  assert (page.p_state = Resident);
  set_state page Cleaning;
  Page_queues.launder kctx.Kctx.queues page

let cleaned page =
  assert (page.p_state = Cleaning);
  set_state page Resident

let add_mapping page pmap ~vpn =
  if not (List.exists (fun (pm, v) -> pm == pmap && v = vpn) page.mappings) then
    page.mappings <- (pmap, vpn) :: page.mappings

let drop_mapping page pmap ~vpn =
  page.mappings <- List.filter (fun (pm, v) -> not (pm == pmap && v = vpn)) page.mappings

let harvest_bits kctx page =
  let mem = kctx.Kctx.mem in
  if Phys_mem.modified mem page.frame then begin
    page.dirty <- true;
    Phys_mem.set_modified mem page.frame false
  end

let remove_all_mappings ?(charge = true) kctx page =
  harvest_bits kctx page;
  let n = List.length page.mappings in
  List.iter (fun (pmap, vpn) -> Pmap.remove pmap ~vpn) page.mappings;
  page.mappings <- [];
  if charge && n > 0 then Kctx.charge kctx (float_of_int n *. kctx.Kctx.params.Machine.map_op_us)

(* Structural detachment happens before the (potentially blocking) map
   charges, so a fault running while we sleep never sees a half-freed
   page in the tables. *)
let free kctx page =
  assert (not (busy page));
  Page_queues.remove kctx.Kctx.queues page;
  Hashtbl.remove page.p_obj.obj_pages page.p_offset;
  (* Anyone waiting on this page (e.g. for a manager unlock) must wake
     and re-run its fault against the new world. *)
  Waitq.broadcast page.busy_wait;
  let mappings = page.mappings in
  page.mappings <- [];
  harvest_bits kctx page;
  List.iter (fun (pmap, vpn) -> Pmap.remove pmap ~vpn) mappings;
  Kctx.free_frame kctx page.frame;
  Counters.incr kctx.Kctx.stats s_pages_freed;
  let n = List.length mappings in
  if n > 0 then Kctx.charge kctx (float_of_int n *. kctx.Kctx.params.Machine.map_op_us)

(* Reclaim a speculative cluster-in placeholder the manager never
   filled. No faulter waits on a Speculative page (a fault landing on
   one promotes it to Demanded), so dropping it is always safe. The
   abandoned request leaves the structure Failed. *)
let release_placeholder kctx page =
  if page.p_state = Speculative && Hashtbl.mem page.p_obj.obj_pages page.p_offset then begin
    set_state page Failed;
    free kctx page
  end

let rename page obj ~offset =
  if Hashtbl.mem obj.obj_pages offset then invalid_arg "Vm_page.rename: target offset occupied";
  Hashtbl.remove page.p_obj.obj_pages page.p_offset;
  page.p_obj <- obj;
  page.p_offset <- offset;
  Hashtbl.replace obj.obj_pages offset page
