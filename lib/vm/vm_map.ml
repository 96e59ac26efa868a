open Vm_types
module Prot = Mach_hw.Prot
module Pmap = Mach_hw.Pmap
module Machine = Mach_hw.Machine
module Transport = Mach_ipc.Transport

(* Entries are kept in a sorted array (by va_start, non-overlapping) so
   the fault-path lookup is a binary search instead of the historical
   linear list walk. A per-map "last hit" hint short-circuits the search
   entirely for the common run of faults against one region (the BSD
   vm_map hint). Entry va_start never changes after insertion (clip only
   shrinks va_end and inserts a fresh tail), so sortedness is preserved
   by construction; structural changes go through [set_entries], which
   is also the single place the hint gets invalidated. *)
type t = {
  map_id : int;
  kctx : Kctx.t;
  map_pmap : Pmap.t option;
  mutable map_entries : entry array; (* sorted by va_start, non-overlapping *)
  mutable map_hint : entry option; (* last entry a lookup resolved to *)
  mutable mref : int; (* sharing-map references *)
}

and entry = {
  mutable va_start : int;
  mutable va_end : int;
  mutable protection : Prot.t;
  mutable max_protection : Prot.t;
  mutable inheritance : inheritance;
  mutable backing : entry_backing;
}

and entry_backing = Direct of direct | Shared of { share_map : t; sh_offset : int }

and direct = {
  mutable d_obj : obj;
  mutable d_offset : int;
  mutable needs_copy : bool;
  d_from_copy : bool;
}

type region_info = {
  ri_start : int;
  ri_size : int;
  ri_protection : Prot.t;
  ri_max_protection : Prot.t;
  ri_inheritance : inheritance;
  ri_object_id : int option;
  ri_shared : bool;
  ri_name_port : port option;
}

exception No_space
exception Bad_address of int

let next_map_id = ref 0

(* The top of every map's address space. *)
let va_limit = 1 lsl 40

let create kctx ~pmap =
  incr next_map_id;
  {
    map_id = !next_map_id;
    kctx;
    map_pmap = pmap;
    map_entries = [||];
    map_hint = None;
    mref = 1;
  }

let pmap t = t.map_pmap
let kctx t = t.kctx
let entries t = Array.to_list t.map_entries
let page_size t = t.kctx.Kctx.page_size
let size t = Array.fold_left (fun acc e -> acc + (e.va_end - e.va_start)) 0 t.map_entries

let check_invariants t =
  let ps = page_size t in
  let rec go last = function
    | [] -> Ok ()
    | e :: rest ->
      if e.va_start >= e.va_end then Error (Printf.sprintf "empty entry at %#x" e.va_start)
      else if e.va_start < last then Error (Printf.sprintf "overlap at %#x" e.va_start)
      else if e.va_start land (ps - 1) <> 0 || e.va_end land (ps - 1) <> 0 then
        Error (Printf.sprintf "unaligned entry at %#x" e.va_start)
      else if not (Prot.subset e.protection e.max_protection) then
        Error (Printf.sprintf "protection exceeds max at %#x" e.va_start)
      else begin
        match e.backing with
        | Direct d ->
          if d.d_offset land (ps - 1) <> 0 then
            Error (Printf.sprintf "unaligned object offset at %#x" e.va_start)
          else if d.d_obj.ref_count <= 0 then
            Error (Printf.sprintf "dead object reference at %#x" e.va_start)
          else go e.va_end rest
        | Shared s ->
          if s.share_map.mref <= 0 then Error (Printf.sprintf "dead share map at %#x" e.va_start)
          else go e.va_end rest
      end
  in
  match go 0 (entries t) with
  | Error _ as e -> e
  | Ok () -> (
    (* The hint must always reference a live entry of this map. *)
    match t.map_hint with
    | None -> Ok ()
    | Some h ->
      if Array.exists (fun e -> e == h) t.map_entries then Ok ()
      else Error "hint references an entry not in the map")

(* ---- entry array surgery ----------------------------------------------- *)

(* Replace the entry set wholesale; any removal invalidates the hint
   (a hinted lookup must never resolve to a detached entry). *)
let set_entries t es =
  t.map_entries <- es;
  (match t.map_hint with
  | Some h when not (Array.exists (fun e -> e == h) es) -> t.map_hint <- None
  | Some _ | None -> ())

(* Index of the last entry with va_start <= va, or -1. *)
let find_slot t va =
  let es = t.map_entries in
  let lo = ref 0 and hi = ref (Array.length es - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if es.(mid).va_start <= va then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let covers e va = va >= e.va_start && va < e.va_end

let find_entry ?(count = false) t va =
  let stats = t.kctx.Kctx.stats in
  match t.map_hint with
  | Some h when covers h va ->
    if count then Counters.incr stats s_hint_hits;
    Some h
  | _ ->
    if count then Counters.incr stats s_hint_misses;
    let i = find_slot t va in
    if i < 0 then None
    else
      let e = t.map_entries.(i) in
      if covers e va then begin
        t.map_hint <- Some e;
        Some e
      end
      else None

let insert_entry t e =
  let es = t.map_entries in
  let n = Array.length es in
  let pos = ref n in
  (* Binary search for the insertion point (first entry starting after e). *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if e.va_start < es.(mid).va_start then begin
      pos := mid;
      hi := mid - 1
    end
    else lo := mid + 1
  done;
  let out = Array.make (n + 1) e in
  Array.blit es 0 out 0 !pos;
  Array.blit es !pos out (!pos + 1) (n - !pos);
  t.map_entries <- out

(* Split [e] so that [addr] becomes an entry boundary. *)
let clip t addr =
  match find_entry t addr with
  | None -> ()
  | Some e when e.va_start = addr -> ()
  | Some e ->
    let tail_backing =
      match e.backing with
      | Direct d ->
        d.d_obj.ref_count <- d.d_obj.ref_count + 1;
        Direct
          {
            d_obj = d.d_obj;
            d_offset = d.d_offset + (addr - e.va_start);
            needs_copy = d.needs_copy;
            d_from_copy = d.d_from_copy;
          }
      | Shared s ->
        s.share_map.mref <- s.share_map.mref + 1;
        Shared { share_map = s.share_map; sh_offset = s.sh_offset + (addr - e.va_start) }
    in
    let tail =
      {
        va_start = addr;
        va_end = e.va_end;
        protection = e.protection;
        max_protection = e.max_protection;
        inheritance = e.inheritance;
        backing = tail_backing;
      }
    in
    e.va_end <- addr;
    insert_entry t tail

(* All entries intersecting [lo, hi), clipped exactly to the range. *)
let entries_in_range t ~lo ~hi =
  clip t lo;
  clip t hi;
  Array.fold_right
    (fun e acc ->
      if e.va_start >= lo && e.va_end <= hi && e.va_start < hi && e.va_end > lo then e :: acc
      else acc)
    t.map_entries []

(* The range must be fully mapped; returns entries in order. *)
let entries_covering t ~lo ~hi =
  let es = entries_in_range t ~lo ~hi in
  let rec check cursor = function
    | [] -> if cursor = hi then () else raise (Bad_address cursor)
    | e :: rest ->
      if e.va_start <> cursor then raise (Bad_address cursor) else check e.va_end rest
  in
  check lo es;
  es

(* ---- hardware (pmap) bookkeeping -------------------------------------- *)

(* Iterate resident pages reachable through a direct record for object
   offsets [lo_off, lo_off+span); [f] receives the page and the offset
   relative to lo_off. Walks the whole shadow chain: pages from backing
   objects may be mapped read-only in our pmap. *)
let iter_chain_pages d ~lo_off ~span f =
  let rec walk obj delta =
    Hashtbl.iter
      (fun off page ->
        let top_off = off - delta in
        if top_off >= lo_off && top_off < lo_off + span then f page (top_off - lo_off))
      obj.obj_pages;
    match obj.backing with
    | Some { back_obj; back_offset } -> walk back_obj (delta + back_offset)
    | None -> ()
  in
  walk d.d_obj 0

(* Apply [f page rel_off] to resident pages under [e] for the address
   range [lo, hi) (which must lie within the entry); rel_off is relative
   to lo. *)
let iter_entry_pages e ~lo ~hi f =
  let span = hi - lo in
  match e.backing with
  | Direct d -> iter_chain_pages d ~lo_off:(d.d_offset + (lo - e.va_start)) ~span f
  | Shared s ->
    let sh_lo = s.sh_offset + (lo - e.va_start) in
    let sh_hi = sh_lo + span in
    Array.iter
      (fun se ->
        let olo = max se.va_start sh_lo and ohi = min se.va_end sh_hi in
        if olo < ohi then
          match se.backing with
          | Direct d ->
            iter_chain_pages d ~lo_off:(d.d_offset + (olo - se.va_start)) ~span:(ohi - olo)
              (fun page rel -> f page (olo - sh_lo + rel))
          | Shared _ -> assert false (* sharing maps are single-level *))
      s.share_map.map_entries

(* Remove every hardware translation this map holds for [lo, hi) of
   entry [e], fixing the pages' reverse-mapping lists. *)
let drop_hw t e ~lo ~hi =
  match t.map_pmap with
  | None -> ()
  | Some pm ->
    let ps = page_size t in
    iter_entry_pages e ~lo ~hi (fun page rel ->
        let vpn = (lo + rel) / ps in
        Vm_page.drop_mapping page pm ~vpn);
    Pmap.remove_range pm ~lo:(lo / ps) ~hi:((hi / ps) - 1)

(* Reduce hardware protections in [lo, hi) to at most [prot]. *)
let limit_hw t e ~lo ~hi prot =
  match t.map_pmap with
  | None -> ()
  | Some pm ->
    let ps = page_size t in
    iter_entry_pages e ~lo ~hi (fun page rel ->
        let vpn = (lo + rel) / ps in
        match Pmap.lookup pm ~vpn with
        | Some (_, cur) -> Pmap.protect pm ~vpn ~prot:(Prot.inter cur prot)
        | None -> ignore page)

(* Write-protect every mapping (in all pmaps) of resident pages backing
   this direct record: the next write anywhere faults and copies.
   The sweep is batched: mappings are gathered per pmap and
   write-protected as contiguous vpn runs through Pmap.protect_range,
   under one map-op charge for the whole record — fork/copyin freeze
   cost is O(entries), not O(pages x mappings). *)
let freeze_chain kctx d ~lo_off ~span =
  let groups = ref [] in
  let add pmap vpn =
    match List.find_opt (fun (pm, _) -> pm == pmap) !groups with
    | Some (_, vpns) -> vpns := vpn :: !vpns
    | None -> groups := (pmap, ref [ vpn ]) :: !groups
  in
  iter_chain_pages d ~lo_off ~span (fun page _ ->
      List.iter (fun (pm, vpn) -> add pm vpn) page.mappings);
  List.iter
    (fun (pm, vpns) ->
      let rec runs = function
        | [] -> ()
        | v :: rest ->
          let rec extend last = function
            | v' :: rest' when v' = last + 1 -> extend v' rest'
            | rest' -> (last, rest')
          in
          let hi, rest' = extend v rest in
          Pmap.protect_range pm ~lo:v ~hi ~prot:Prot.rx;
          runs rest'
      in
      runs (List.sort_uniq compare !vpns))
    !groups;
  if !groups <> [] then Kctx.charge kctx kctx.Kctx.params.Machine.map_op_us

(* ---- deallocation ------------------------------------------------------ *)

let release_entry t e =
  drop_hw t e ~lo:e.va_start ~hi:e.va_end;
  match e.backing with
  | Direct d -> Vm_object.deallocate t.kctx d.d_obj
  | Shared s ->
    s.share_map.mref <- s.share_map.mref - 1;
    if s.share_map.mref = 0 then begin
      Array.iter
        (fun se ->
          match se.backing with
          | Direct d -> Vm_object.deallocate t.kctx d.d_obj
          | Shared _ -> assert false)
        s.share_map.map_entries;
      set_entries s.share_map [||]
    end

let deallocate t ~addr ~size =
  let ps = page_size t in
  let lo = addr land lnot (ps - 1) in
  let hi = (addr + size + ps - 1) land lnot (ps - 1) in
  let doomed = entries_in_range t ~lo ~hi in
  set_entries t
    (Array.of_list (List.filter (fun e -> not (List.memq e doomed)) (entries t)));
  List.iter (release_entry t) doomed

let destroy t =
  let doomed = entries t in
  set_entries t [||];
  List.iter (release_entry t) doomed

(* ---- allocation -------------------------------------------------------- *)

let range_free t ~lo ~hi =
  not (Array.exists (fun e -> e.va_start < hi && e.va_end > lo) t.map_entries)

let find_space t ~size =
  let ps = page_size t in
  let rec go cursor = function
    | [] -> if cursor + size <= va_limit then cursor else raise No_space
    | e :: rest -> if cursor + size <= e.va_start then cursor else go e.va_end rest
  in
  go ps (entries t)

let pick_address t ?addr ~size ~anywhere () =
  let ps = page_size t in
  if size <= 0 then invalid_arg "Vm_map: size must be positive";
  let size = (size + ps - 1) land lnot (ps - 1) in
  let base =
    match (addr, anywhere) with
    | Some a, false ->
      let a = a land lnot (ps - 1) in
      if not (range_free t ~lo:a ~hi:(a + size)) then raise No_space;
      a
    | Some a, true ->
      let a = a land lnot (ps - 1) in
      if range_free t ~lo:a ~hi:(a + size) then a else find_space t ~size
    | None, _ -> find_space t ~size
  in
  (base, size)

let allocate_with_object t ?addr ~size ~anywhere ~obj ~offset ?(needs_copy = false)
    ?(from_copy = false) () =
  let base, size = pick_address t ?addr ~size ~anywhere () in
  insert_entry t
    {
      va_start = base;
      va_end = base + size;
      protection = Prot.rw;
      max_protection = Prot.all;
      inheritance = Inherit_copy;
      backing = Direct { d_obj = obj; d_offset = offset; needs_copy; d_from_copy = from_copy };
    };
  base

let allocate t ?addr ~size ~anywhere () =
  let obj = Vm_object.create_anonymous t.kctx ~size in
  allocate_with_object t ?addr ~size ~anywhere ~obj ~offset:0 ()

(* ---- attributes -------------------------------------------------------- *)

let protect t ~addr ~size ~set_max prot =
  let ps = page_size t in
  let lo = addr land lnot (ps - 1) in
  let hi = (addr + size + ps - 1) land lnot (ps - 1) in
  let es = entries_covering t ~lo ~hi in
  List.iter
    (fun e ->
      if set_max then begin
        e.max_protection <- prot;
        e.protection <- Prot.inter e.protection prot
      end
      else begin
        if not (Prot.subset prot e.max_protection) then raise (Bad_address e.va_start);
        e.protection <- prot
      end;
      limit_hw t e ~lo:e.va_start ~hi:e.va_end e.protection)
    es

let set_inheritance t ~addr ~size inh =
  let ps = page_size t in
  let lo = addr land lnot (ps - 1) in
  let hi = (addr + size + ps - 1) land lnot (ps - 1) in
  let es = entries_covering t ~lo ~hi in
  List.iter (fun e -> e.inheritance <- inh) es

let regions t =
  List.map
    (fun e ->
      let obj_id, name_port, shared =
        match e.backing with
        | Direct d ->
          let name =
            match d.d_obj.pager with Pager p -> p.name_port | No_pager -> None
          in
          (Some d.d_obj.obj_id, name, false)
        | Shared _ -> (None, None, true)
      in
      {
        ri_start = e.va_start;
        ri_size = e.va_end - e.va_start;
        ri_protection = e.protection;
        ri_max_protection = e.max_protection;
        ri_inheritance = e.inheritance;
        ri_object_id = obj_id;
        ri_shared = shared;
        ri_name_port = name_port;
      })
    (entries t)

(* ---- lookup (fault path) ---------------------------------------------- *)

type lookup = {
  lk_entry_prot : Prot.t;
  lk_obj : obj;
  lk_offset : int;
  lk_writable : bool;
  lk_from_copy : bool;
  lk_run : int;
      (* bytes from lk_offset to the end of the backing record: the
         faulted page plus the forward window the copy engine may
         resolve in the same fault *)
}

(* Resolve a pending copy-on-write by interposing a shadow object over
   the direct record; the old object becomes the frozen common ancestor
   (§5.5). [span] is the extent the record covers. *)
let resolve_copy kctx d ~span =
  let shadow = Vm_object.create_shadow kctx ~backs:d.d_obj ~offset:d.d_offset ~size:span in
  (* The record's reference moves from the old object to the shadow:
     create_shadow took its own reference on the old object. *)
  Vm_object.deallocate kctx d.d_obj;
  d.d_obj <- shadow;
  d.d_offset <- 0;
  d.needs_copy <- false

let lookup ?(count = true) t ~addr ~write =
  match find_entry ~count t addr with
  | None -> Error `Invalid_address
  | Some e ->
    let needed = if write then Prot.write else Prot.read in
    if not (Prot.subset needed e.protection) then Error `Protection
    else begin
      let resolve d ~rec_base ~span =
        (* [rec_base]: the virtual address corresponding to d_offset's
           start; [span]: extent of the record. *)
        if write && d.needs_copy then resolve_copy t.kctx d ~span;
        let offset = d.d_offset + (addr - rec_base) in
        let lk_offset = t.kctx.Kctx.page_size * (offset / t.kctx.Kctx.page_size) in
        Ok
          {
            lk_entry_prot = e.protection;
            lk_obj = d.d_obj;
            lk_offset;
            lk_writable = Prot.can_write e.protection && not d.needs_copy;
            lk_from_copy = d.d_from_copy;
            lk_run = d.d_offset + span - lk_offset;
          }
      in
      match e.backing with
      | Direct d -> resolve d ~rec_base:e.va_start ~span:(e.va_end - e.va_start)
      | Shared s -> (
        let sh_addr = s.sh_offset + (addr - e.va_start) in
        match find_entry s.share_map sh_addr with
        | None -> Error `Invalid_address
        | Some se -> (
          match se.backing with
          | Direct d ->
            (* Translate so that rec_base maps [addr] onto the right
               sub-entry offset. *)
            let rec_base = addr - (sh_addr - se.va_start) in
            resolve d ~rec_base ~span:(se.va_end - se.va_start)
          | Shared _ -> assert false))
    end

(* ---- fork and region copy ---------------------------------------------- *)

(* Promote a direct entry to a sharing-map entry (first Share fork). *)
let promote_to_share t e =
  match e.backing with
  | Shared _ -> ()
  | Direct d ->
    let sm = create t.kctx ~pmap:None in
    let span = e.va_end - e.va_start in
    sm.map_entries <-
      [|
        {
          va_start = 0;
          va_end = span;
          protection = Prot.all;
          max_protection = Prot.all;
          inheritance = Inherit_share;
          backing = Direct d;
        };
      |];
    e.backing <- Shared { share_map = sm; sh_offset = 0 }

(* Set up symmetric copy-on-write of a direct record for a new holder:
   returns the (obj, offset) the copy should reference. *)
let cow_share kctx d ~lo_off ~span =
  d.d_obj.ref_count <- d.d_obj.ref_count + 1;
  d.needs_copy <- true;
  freeze_chain kctx d ~lo_off ~span;
  (d.d_obj, lo_off)

(* Build the copy-entries for address range [lo, hi) of entry [e],
   calling [emit] with (rel_addr, span, obj, offset) pieces. *)
let copy_pieces t e ~lo ~hi emit =
  let kctx = t.kctx in
  match e.backing with
  | Direct d ->
    let lo_off = d.d_offset + (lo - e.va_start) in
    let obj, offset = cow_share kctx d ~lo_off ~span:(hi - lo) in
    emit ~rel:0 ~span:(hi - lo) ~obj ~offset
  | Shared s ->
    let sh_lo = s.sh_offset + (lo - e.va_start) in
    let sh_hi = sh_lo + (hi - lo) in
    let sub = entries_covering s.share_map ~lo:sh_lo ~hi:sh_hi in
    List.iter
      (fun se ->
        match se.backing with
        | Direct d ->
          let lo_off = d.d_offset + (max se.va_start sh_lo - se.va_start) in
          let span = min se.va_end sh_hi - max se.va_start sh_lo in
          let obj, offset = cow_share kctx d ~lo_off ~span in
          emit ~rel:(max se.va_start sh_lo - sh_lo) ~span ~obj ~offset
        | Shared _ -> assert false)
      sub

let fork t ~child_pmap =
  let child = create t.kctx ~pmap:child_pmap in
  Array.iter
    (fun e ->
      match e.inheritance with
      | Inherit_none -> ()
      | Inherit_share ->
        promote_to_share t e;
        (match e.backing with
        | Shared s ->
          s.share_map.mref <- s.share_map.mref + 1;
          insert_entry child
            {
              va_start = e.va_start;
              va_end = e.va_end;
              protection = e.protection;
              max_protection = e.max_protection;
              inheritance = e.inheritance;
              backing = Shared { share_map = s.share_map; sh_offset = s.sh_offset };
            }
        | Direct _ -> assert false)
      | Inherit_copy ->
        copy_pieces t e ~lo:e.va_start ~hi:e.va_end (fun ~rel ~span ~obj ~offset ->
            insert_entry child
              {
                va_start = e.va_start + rel;
                va_end = e.va_start + rel + span;
                protection = e.protection;
                max_protection = e.max_protection;
                inheritance = e.inheritance;
                backing =
                  Direct { d_obj = obj; d_offset = offset; needs_copy = true; d_from_copy = false };
              }))
    t.map_entries;
  child

(* ---- message copy objects (vm_map_copyin / vm_map_copyout) ------------ *)

type copy_piece = { cpc_rel : int; cpc_span : int; cpc_obj : obj; cpc_offset : int }

type vm_copy = {
  vc_kctx : Kctx.t;
  vc_size : int;
  vc_pieces : copy_piece list;
  mutable vc_consumed : bool;
}

type Mach_ipc.Message.copy_payload += Vm_copy_handle of vm_copy

let copyin t ~addr ~size =
  let ps = page_size t in
  let kctx = t.kctx in
  let lo = addr land lnot (ps - 1) in
  let hi = (addr + size + ps - 1) land lnot (ps - 1) in
  let es = entries_covering t ~lo ~hi in
  let pieces = ref [] in
  List.iter
    (fun e ->
      (* cow_share (inside copy_pieces) takes an object reference for
         the copy object and COW-protects the sender's entries: later
         sender writes shadow, leaving the snapshot untouched. *)
      copy_pieces t e ~lo:e.va_start ~hi:e.va_end (fun ~rel ~span ~obj ~offset ->
          pieces :=
            { cpc_rel = e.va_start - lo + rel; cpc_span = span; cpc_obj = obj; cpc_offset = offset }
            :: !pieces))
    es;
  Counters.incr kctx.Kctx.node.Transport.node_stats Transport.s_copyins;
  (* Write-protecting the source is one map op per page: O(pages) map
     work instead of O(bytes) copying. *)
  Kctx.charge kctx (float_of_int ((hi - lo) / ps) *. kctx.Kctx.params.Machine.map_op_us);
  { vc_kctx = kctx; vc_size = hi - lo; vc_pieces = List.rev !pieces; vc_consumed = false }

let copyout t copy ?addr () =
  if copy.vc_kctx != t.kctx then invalid_arg "Vm_map.copyout: copy object from another kernel";
  if copy.vc_consumed then invalid_arg "Vm_map.copyout: copy object already consumed";
  let base, _ = pick_address t ?addr ~size:copy.vc_size ~anywhere:true () in
  copy.vc_consumed <- true;
  List.iter
    (fun p ->
      (* The copy object's reference on each piece moves to the new
         entry; no data is touched — pages materialize lazily through
         the fault path (d_from_copy marks them for the stats). *)
      insert_entry t
        {
          va_start = base + p.cpc_rel;
          va_end = base + p.cpc_rel + p.cpc_span;
          protection = Prot.rw;
          max_protection = Prot.all;
          inheritance = Inherit_copy;
          backing =
            Direct
              { d_obj = p.cpc_obj; d_offset = p.cpc_offset; needs_copy = true; d_from_copy = true };
        })
    copy.vc_pieces;
  Kctx.charge t.kctx
    (float_of_int (List.length copy.vc_pieces) *. t.kctx.Kctx.params.Machine.map_op_us);
  base

let copy_discard copy =
  if not copy.vc_consumed then begin
    copy.vc_consumed <- true;
    List.iter (fun p -> Vm_object.deallocate copy.vc_kctx p.cpc_obj) copy.vc_pieces
  end

let copy_size copy = copy.vc_size
