module Message = Mach_ipc.Message
module Port = Mach_ipc.Port
module Prot = Mach_hw.Prot
module Task = Mach_kernel.Task
module Mos = Mach.Memory_object_server
module Rt = Mach.Pager_runtime

(* The coherence state machine is the policy; everything else — object
   registry, request splitting, reply accounting — lives in the shared
   pager runtime. Every [p_read] returns [Defer]: grants are issued by
   the state machine itself, possibly much later (after invalidations
   confirm), through the runtime's counted send helpers. *)

(* [g_spec]: a read for a cluster neighbour no faulting thread waits on. *)
type grant =
  | Provide of { g_request : Message.port; g_write : bool; g_spec : bool }
  | Unlock of { g_request : Message.port }

type state =
  | Idle
  | Readers of Message.port list
  | Writer of Message.port
  | Transition of transition

and transition = {
  mutable awaiting : int list;
  survivors : Message.port list;  (* kernels that keep a read-only copy through it *)
  queued : grant Queue.t;
}

(* A grant sends [data] itself, not a copy: the buffer is never written
   in place once a kernel may hold it, and [p_write] installs a new one. *)
type page_rec = { mutable data : bytes; mutable state : state }

type region = {
  rg_pages : page_rec array;
  mutable rg_kernels : Message.port list;  (** request ports, one per kernel *)
  mutable rg_demanded : int;  (** first page of the data_request being served *)
}

module Counters = Mach_util.Metrics.Counters

let netmem_counters = Counters.layout ()
let netmem_stat = Counters.declare netmem_counters
let s_invalidations = netmem_stat "invalidations"
let s_downgrades = netmem_stat "downgrades"
let s_grants = netmem_stat "grants"

type t = { rt : region Rt.t; srv : Mos.t; page_size : int; stats : Counters.t }

let runtime_stats t = Rt.stats t.rt

let region_exn t port =
  match Rt.find_data t.rt port with
  | Some r -> r
  | None -> invalid_arg "Netmem: unknown region"

(* --- protocol actions --------------------------------------------------- *)

let flush t page_idx ~request =
  Counters.incr t.stats s_invalidations;
  Rt.flush_request t.rt ~request ~offset:(page_idx * t.page_size) ~length:t.page_size

let execute_grant t page page_idx = function
  | Provide { g_request; g_write; _ } ->
    if g_write then begin
      Counters.incr t.stats s_grants;
      Rt.data_provided t.rt ~request:g_request ~offset:(page_idx * t.page_size)
        ~data:page.data ~lock_value:Prot.none;
      page.state <- Writer g_request
    end
    else begin
      Rt.data_provided t.rt ~request:g_request ~offset:(page_idx * t.page_size)
        ~data:page.data ~lock_value:Prot.write;
      page.state <- Readers [ g_request ]
    end
  | Unlock { g_request } ->
    Counters.incr t.stats s_grants;
    Rt.data_lock t.rt ~request:g_request ~offset:(page_idx * t.page_size)
      ~length:t.page_size ~lock_value:Prot.none;
    page.state <- Writer g_request

(* Hold [g], and every grant queued behind it, until each kernel in
   [awaiting] confirms. *)
let start_transition page ~awaiting ~survivors g =
  let tr = { awaiting = List.map Port.id awaiting; survivors; queued = Queue.create () } in
  Queue.add g tr.queued;
  page.state <- Transition tr

(* Revoke [targets]' copies; only [survivors] keep theirs. *)
let invalidate t page page_idx targets ~survivors g =
  start_transition page ~awaiting:targets ~survivors g;
  List.iter (fun request -> flush t page_idx ~request) targets

(* A demanded read against writer [w] downgrades it to a reader instead
   of revoking its copy: write-lock the page, then clean it, so a dirty
   page comes back as a data_write and [w] keeps the page read-only.
   The lock must come first, or [w] could dirty the page after the
   clean has taken its snapshot. The order holds on arrival: both go to
   [w]'s one request port, manager-to-kernel messages on one port arrive
   in order, and the kernel's single pager-service loop handles them one
   at a time. The clean's lock_completed closes the transition. *)
let downgrade t page page_idx w g =
  Counters.incr t.stats s_downgrades;
  start_transition page ~awaiting:[ w ] ~survivors:[ w ] g;
  let offset = page_idx * t.page_size in
  Rt.data_lock t.rt ~request:w ~offset ~length:t.page_size ~lock_value:Prot.write;
  Rt.clean_request t.rt ~request:w ~offset ~length:t.page_size

let same_port a b = Port.id a = Port.id b

let rec handle_request t region page_idx ~request ~want_write ~has_copy ~speculative =
  let page = region.rg_pages.(page_idx) in
  let grant () =
    if has_copy then Unlock { g_request = request }
    else Provide { g_request = request; g_write = want_write; g_spec = speculative }
  in
  match page.state with
  | Idle -> execute_grant t page page_idx (grant ())
  | Readers rs ->
    if not want_write then begin
      if not (List.exists (same_port request) rs) then begin
        Rt.data_provided t.rt ~request ~offset:(page_idx * t.page_size)
          ~data:page.data ~lock_value:Prot.write;
        page.state <- Readers (request :: rs)
      end
      else
        (* The kernel re-requested a page it holds (it dropped its copy
           without telling us): just provide again. *)
        Rt.data_provided t.rt ~request ~offset:(page_idx * t.page_size)
          ~data:page.data ~lock_value:Prot.write
    end
    else begin
      let others = List.filter (fun r -> not (same_port request r)) rs in
      let self_has = has_copy && List.exists (same_port request) rs in
      let g =
        if self_has then Unlock { g_request = request }
        else Provide { g_request = request; g_write = true; g_spec = false }
      in
      if others = [] then execute_grant t page page_idx g
      else invalidate t page page_idx others ~survivors:(if self_has then [ request ] else []) g
    end
  | Writer w ->
    let g = Provide { g_request = request; g_write = want_write; g_spec = speculative } in
    if same_port w request then
      (* Already the writer. If it still holds the copy (an unlock that
         crossed with a request we answered as a grant), a lock change
         is what completes its fault; re-providing data would be
         ignored by a kernel that has the page. *)
      execute_grant t page page_idx (grant ())
    else if want_write || speculative then
      (* A write, or a read for a cluster neighbour, revokes the
         writer's copy; only a read some thread waits on downgrades. If
         neighbours downgraded too, a kernel that writes often would keep
         a copy of every page it touches while the kernels contending
         with it refetch each one, and it would pull ever further ahead:
         in bench/perf's netmem_norma the two remote clients stop
         progressing in step and one ends up running alone. A flushed
         neighbour makes each reader's fault cost the writer too. *)
      invalidate t page page_idx [ w ] ~survivors:[] g
    else downgrade t page page_idx w g
  | Transition tr -> Queue.add (grant ()) tr.queued

and complete_transition t region page_idx tr =
  let page = region.rg_pages.(page_idx) in
  (* A kernel that died meanwhile must not become a reader or writer:
     a later flush of it would never complete. *)
  let live r = List.exists (same_port r) region.rg_kernels in
  page.state <- (match List.filter live tr.survivors with [] -> Idle | rs -> Readers rs);
  (* Every queued grant re-enters against the copies that survived. An
     unlock from a kernel whose copy was revoked becomes a fresh
     provide, or that kernel would wait forever for a lock change on
     nothing. *)
  Queue.iter
    (function
      | Provide { g_request; g_write; g_spec } when live g_request ->
        handle_request t region page_idx ~request:g_request ~want_write:g_write ~has_copy:false
          ~speculative:g_spec
      | Unlock { g_request } when live g_request ->
        handle_request t region page_idx ~request:g_request ~want_write:true
          ~has_copy:(List.exists (same_port g_request) tr.survivors) ~speculative:false
      | Provide _ | Unlock _ -> ())
    tr.queued

(* --- the policy --------------------------------------------------------- *)

(* A data request means the kernel holds no copy: retire any stale
   bookkeeping for it first. *)
let retire_stale page ~request =
  match page.state with
  | Readers rs when List.exists (same_port request) rs ->
    page.state <-
      (match List.filter (fun r -> not (same_port request r)) rs with
      | [] -> Idle
      | rest -> Readers rest)
  | Writer w when same_port w request -> page.state <- Idle
  | Idle | Readers _ | Writer _ | Transition _ -> ()

let policy get =
  {
    Rt.default_policy with
    Rt.p_init =
      (fun _ o ~request ->
        let region = o.Rt.o_data in
        if not (List.exists (same_port request) region.rg_kernels) then
          region.rg_kernels <- request :: region.rg_kernels);
    (* The runtime reshapes a data_request and then reads its pages in
       order on the one service thread, so [first] is the page the
       faulting thread waits on while [p_read] serves the run; the rest
       of the run is the kernel's read cluster. *)
    p_reshape =
      (fun _ o ~first ~npages ->
        o.Rt.o_data.rg_demanded <- first;
        (first, npages));
    p_read =
      (fun _ o ~request ~page:page_idx ~npages:_ ~desired_access ->
        let t = get () in
        let region = o.Rt.o_data in
        if page_idx >= Array.length region.rg_pages then Rt.Defer
        else begin
          let page = region.rg_pages.(page_idx) in
          retire_stale page ~request;
          (* Only the demanded page of a write fault is the write: a
             cluster neighbour is served as a read, so write ownership
             never moves to a kernel that wrote nothing there. *)
          let demanded = page_idx = region.rg_demanded in
          handle_request t region page_idx ~request
            ~want_write:(demanded && Prot.can_write desired_access) ~has_copy:false
            ~speculative:(not demanded);
          Rt.Defer
        end);
    p_unlock =
      (fun _ o ~request ~page:page_idx ~desired_access ->
        let t = get () in
        let region = o.Rt.o_data in
        if page_idx < Array.length region.rg_pages then
          handle_request t region page_idx ~request
            ~want_write:(Prot.can_write desired_access) ~has_copy:true ~speculative:false;
        Rt.Defer_unlock);
    p_write =
      (fun rt o ~offset ~data ->
        let region = o.Rt.o_data in
        Rt.iter_pages rt ~offset ~data (fun ~page:page_idx ~pos ~len ->
            if page_idx < Array.length region.rg_pages then begin
              let page = region.rg_pages.(page_idx) in
              (* A one-page run's buffer is fresh per data_write: adopt it. *)
              if Bytes.length data = Bytes.length page.data then page.data <- data
              else begin
                let fresh = Bytes.copy page.data in
                Bytes.blit data pos fresh 0 len;
                page.data <- fresh
              end
            end));
    p_lock_completed =
      (fun _ o ~request ~offset ~length ->
        match request with
        | None -> ()
        | Some request ->
          let t = get () in
          let region = o.Rt.o_data in
          let rid = Port.id request in
          let first = offset / t.page_size in
          let last = (offset + length - 1) / t.page_size in
          for page_idx = first to min last (Array.length region.rg_pages - 1) do
            match region.rg_pages.(page_idx).state with
            | Transition tr ->
              tr.awaiting <- List.filter (fun id -> id <> rid) tr.awaiting;
              if tr.awaiting = [] then complete_transition t region page_idx tr
            | Idle | Readers _ | Writer _ -> ()
          done);
    p_death =
      (fun _ o port ->
        let t = get () in
        let region = o.Rt.o_data in
        let rid = Port.id port in
        if List.exists (same_port port) region.rg_kernels then begin
          region.rg_kernels <-
            List.filter (fun r -> not (same_port port r)) region.rg_kernels;
          Array.iteri
            (fun page_idx page ->
              match page.state with
              | Readers rs ->
                page.state <-
                  (match List.filter (fun r -> Port.id r <> rid) rs with
                  | [] -> Idle
                  | rest -> Readers rest)
              | Writer w when Port.id w = rid -> page.state <- Idle
              | Transition tr ->
                tr.awaiting <- List.filter (fun id -> id <> rid) tr.awaiting;
                if tr.awaiting = [] then complete_transition t region page_idx tr
              | Idle | Writer _ -> ())
            region.rg_pages
        end);
  }

let start kernel ?(name = "netmem-server") () =
  let srv_task = Task.create kernel ~name () in
  let t_ref = ref None in
  let get () = match !t_ref with Some t -> t | None -> assert false in
  let rt, srv = Mos.serve srv_task (policy get) in
  let t =
    { rt; srv; page_size = Rt.page_size rt; stats = Counters.create netmem_counters }
  in
  t_ref := Some t;
  Mach_util.Metrics.counters kernel.Mach_kernel.Ktypes.k_kctx.Mach_vm.Kctx.metrics
    ~subsystem:"netmem" t.stats;
  t

let create_region t ~size =
  let memory_object = Mos.create_memory_object t.srv () in
  let n = (size + t.page_size - 1) / t.page_size in
  let region =
    {
      rg_pages = Array.init n (fun _ -> { data = Bytes.make t.page_size '\000'; state = Idle });
      rg_kernels = [];
      rg_demanded = 0;
    }
  in
  let o = Rt.register t.rt ~memory_object region in
  o.Rt.o_port

let write_initial t ~region ~offset data =
  let r = region_exn t region in
  let pos = ref 0 in
  while !pos < Bytes.length data do
    let off = offset + !pos in
    let page = r.rg_pages.(off / t.page_size) in
    let in_page = min (Bytes.length data - !pos) (t.page_size - (off mod t.page_size)) in
    Bytes.blit data !pos page.data (off mod t.page_size) in_page;
    pos := !pos + in_page
  done

let read_authoritative t ~region ~offset ~len =
  let r = region_exn t region in
  let out = Bytes.create len in
  for i = 0 to len - 1 do
    let off = offset + i in
    let page = r.rg_pages.(off / t.page_size) in
    Bytes.set out i (Bytes.get page.data (off mod t.page_size))
  done;
  out

type page_view = [ `Idle | `Readers of int | `Writer | `Transition ]

let page_state t ~region ~page =
  let r = region_exn t region in
  match r.rg_pages.(page).state with
  | Idle -> `Idle
  | Readers rs -> `Readers (List.length rs)
  | Writer _ -> `Writer
  | Transition _ -> `Transition

let invalidations t = Counters.get t.stats s_invalidations
let downgrades t = Counters.get t.stats s_downgrades
let grants t = Counters.get t.stats s_grants

