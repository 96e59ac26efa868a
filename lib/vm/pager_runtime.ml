(** The data-manager runtime: one framework under every pager.

    Each of our managers used to re-implement the same plumbing by hand
    on top of the raw protocol — a memory-object registry keyed by
    object port, splitting of multi-page [pager_data_request]s,
    coalesced [pager_data_provided] replies, release accounting,
    port-death bookkeeping. This module owns all of it; a manager
    supplies only a {!policy} (backing-store read/write plus consistency
    decisions) and becomes a thin policy module, which is the paper's
    point: managers differ in policy, not in protocol plumbing.

    The runtime is transport-agnostic (the [send] function is injected)
    and {!dispatch} is its one decoder, so it serves both user-level
    managers driven through [Memory_object_server] and the in-kernel
    default pager driving its own receive loop. *)

module Message = Mach_ipc.Message
module Port = Mach_ipc.Port
module Prot = Mach_hw.Prot

module Stats = struct
  (** Uniform per-pager counters, surfaced through E9/E10 and the
      conformance suite. The one stats record left outside
      [Metrics.Counters], and so [Metrics.register_source]'s one user:
      the [bench/perf] layer probe reads its [s_requests],
      [s_pages_served] and [s_writes] fields. *)
  type t = {
    mutable s_requests : int;  (** pager_data_request messages *)
    mutable s_pages_served : int;  (** pages sent in data_provided replies *)
    mutable s_unavailable : int;  (** pages declared data_unavailable *)
    mutable s_writes : int;  (** pager_data_write messages (one per run) *)
    mutable s_pages_written : int;  (** pages stored from data_writes *)
    mutable s_unlocks : int;  (** pager_data_unlock messages *)
    mutable s_dropped_replies : int;
        (** manager→kernel sends that failed (dead request port) *)
    mutable s_port_deaths : int;  (** kernel port deaths observed *)
  }

  let create () =
    {
      s_requests = 0;
      s_pages_served = 0;
      s_unavailable = 0;
      s_writes = 0;
      s_pages_written = 0;
      s_unlocks = 0;
      s_dropped_replies = 0;
      s_port_deaths = 0;
    }

  let to_list s =
    [
      ("requests", s.s_requests);
      ("pages_served", s.s_pages_served);
      ("unavailable", s.s_unavailable);
      ("writes", s.s_writes);
      ("pages_written", s.s_pages_written);
      ("unlocks", s.s_unlocks);
      ("dropped_replies", s.s_dropped_replies);
      ("port_deaths", s.s_port_deaths);
    ]
end

(** One managed memory object: the registry entry plus per-object
    bookkeeping every manager needs. [o_data] is the policy's own
    state (file record, segment, region, …). *)
type 'o obj = {
  o_port : Message.port;
  o_id : int;
  mutable o_requests : Message.port list;  (** one request port per kernel *)
  o_data : 'o;
}

(** Per-page answer from a policy's read callback. [Defer] means the
    policy replied (or queued a reply) itself — consistency managers
    like netmem grant pages on their own schedule. *)
type page_reply = Data of bytes | Unavailable | Defer

(** Per-page answer to an unlock: lift the lock, impose a different
    one, or let the policy resolve it asynchronously. *)
type unlock_reply = Grant | Relock of Prot.t | Defer_unlock

type 'o t = {
  rt_name : string;
  rt_page_size : int;
  rt_send : Message.t -> (unit, unit) result;
  rt_stats : Stats.t;
  rt_objects : (int, 'o obj) Hashtbl.t;
  rt_policy : 'o policy;
  rt_defer : (unit -> unit) -> unit;
}

and 'o policy = {
  p_read :
    'o t -> 'o obj -> request:Message.port -> page:int -> npages:int -> desired_access:Prot.t ->
    page_reply;
      (** Produce the run starting at [page] (index in pages, not
          bytes); [npages] pages of the request are left. [Data] holds
          k <= [npages] whole pages, or ends in a partial page at
          end-of-object; the runtime moves on by k. A disk-backed
          policy reads the run with one seek. *)
  p_write : 'o t -> 'o obj -> offset:int -> data:bytes -> unit;
      (** Persist one data_write: a run of adjacent pages starting at
          byte [offset], so a disk-backed policy can store it with one
          seek and a WAL policy can force its log once. *)
  p_unlock : 'o t -> 'o obj -> request:Message.port -> page:int -> desired_access:Prot.t -> unlock_reply;
  p_reshape : 'o t -> 'o obj -> first:int -> npages:int -> int * int;
      (** Policy control over how much of a request is honored
          ("advanced managers may provide more data than requested" —
          or less, like copy-on-reference migration). *)
  p_init : 'o t -> 'o obj -> request:Message.port -> unit;
  p_lock_completed :
    'o t -> 'o obj -> request:Message.port option -> offset:int -> length:int -> unit;
  p_death : 'o t -> 'o obj -> Message.port -> unit;
      (** A kernel's request port (or the object port itself) died. *)
  p_may_cache : bool option;  (** send pager_cache on init *)
}

let default_policy =
  {
    p_read = (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Unavailable);
    p_write = (fun _ _ ~offset:_ ~data:_ -> ());
    p_unlock = (fun _ _ ~request:_ ~page:_ ~desired_access:_ -> Grant);
    p_reshape = (fun _ _ ~first ~npages -> (first, npages));
    p_init = (fun _ _ ~request:_ -> ());
    p_lock_completed = (fun _ _ ~request:_ ~offset:_ ~length:_ -> ());
    p_death = (fun _ _ _ -> ());
    p_may_cache = None;
  }

let create ~name ~page_size ~send ~defer policy =
  {
    rt_name = name;
    rt_page_size = page_size;
    rt_send = send;
    rt_stats = Stats.create ();
    rt_objects = Hashtbl.create 32;
    rt_policy = policy;
    rt_defer = defer;
  }

let name t = t.rt_name
let page_size t = t.rt_page_size
let stats t = t.rt_stats

(* --- registry ----------------------------------------------------------- *)

let unregister t o = Hashtbl.remove t.rt_objects o.o_id

(* A port died: either a kernel's request port (that kernel is gone
   from every object that registered it) or a memory-object port itself
   (the object is dead). Collect first — [p_death] may unregister. *)
let handle_port_death t port =
  let pid = Port.id port in
  let victims =
    Hashtbl.fold
      (fun _ o acc ->
        if o.o_id = pid || List.exists (fun r -> Port.id r = pid) o.o_requests then o :: acc
        else acc)
      t.rt_objects []
  in
  if victims <> [] then
    t.rt_stats.Stats.s_port_deaths <- t.rt_stats.Stats.s_port_deaths + 1;
  List.iter
    (fun o ->
      o.o_requests <- List.filter (fun r -> Port.id r <> pid) o.o_requests;
      t.rt_policy.p_death t o port;
      if o.o_id = pid then unregister t o)
    victims

(* The one way a manager hears of a death: the runtime hooks every
   object port and every request port an object names, and the host's
   [defer] decides where [handle_port_death] runs. *)
let watch t port = Port.on_death port (fun () -> t.rt_defer (fun () -> handle_port_death t port))

let register t ~memory_object o_data =
  let o = { o_port = memory_object; o_id = Port.id memory_object; o_requests = []; o_data } in
  Hashtbl.replace t.rt_objects o.o_id o;
  watch t memory_object;
  o

let find t port = Hashtbl.find_opt t.rt_objects (Port.id port)
let find_data t port = Option.map (fun o -> o.o_data) (find t port)
let requests o = o.o_requests

(* --- manager→kernel calls (Table 3-6), with drop accounting ------------- *)

let send_m2k t call ~request =
  match t.rt_send (Pager_iface.encode_m2k call ~request) with
  | Ok () -> ()
  | Error () -> t.rt_stats.Stats.s_dropped_replies <- t.rt_stats.Stats.s_dropped_replies + 1

let pages_in t len = (len + t.rt_page_size - 1) / t.rt_page_size

let data_provided t ~request ~offset ~data ~lock_value =
  t.rt_stats.Stats.s_pages_served <-
    t.rt_stats.Stats.s_pages_served + pages_in t (Bytes.length data);
  send_m2k t (Pager_iface.Data_provided { offset; data; lock_value }) ~request

let data_unavailable t ~request ~offset ~size =
  t.rt_stats.Stats.s_unavailable <- t.rt_stats.Stats.s_unavailable + pages_in t size;
  send_m2k t (Pager_iface.Data_unavailable { offset; size }) ~request

let data_lock t ~request ~offset ~length ~lock_value =
  send_m2k t (Pager_iface.Data_lock { offset; length; lock_value }) ~request

let flush_request t ~request ~offset ~length =
  send_m2k t (Pager_iface.Flush_request { offset; length }) ~request

let clean_request t ~request ~offset ~length =
  send_m2k t (Pager_iface.Clean_request { offset; length }) ~request

let cache t ~request ~may_cache = send_m2k t (Pager_iface.Cache { may_cache }) ~request

(* --- kernel→manager dispatch (Table 3-5) -------------------------------- *)

(* [pager_create] and [pager_init] both attach a kernel (its request
   port) to an object; [adopt] registers one this manager does not know
   yet. A request port is watched from the first time an object names
   it. *)
let handle_init t adopt ~memory_object ~request =
  let known =
    match (find t memory_object, adopt) with
    | None, Some adopt -> Some (register t ~memory_object (adopt ~memory_object))
    | o, _ -> o
  in
  match known with
  | None -> ()
  | Some o ->
    if not (List.exists (fun r -> Port.id r = Port.id request) o.o_requests) then begin
      o.o_requests <- request :: o.o_requests;
      watch t request
    end;
    (match t.rt_policy.p_may_cache with
    | Some may_cache -> cache t ~request ~may_cache
    | None -> ());
    t.rt_policy.p_init t o ~request

(* Walk the (reshaped) range run by run, coalescing adjacent [Data]
   chunks into one data_provided and adjacent holes into one
   data_unavailable — reply traffic stays proportional to runs, not
   pages. A chunk that ends mid-page can only be a trailing partial, so
   it closes its run. [Defer] flushes both: the policy owns that page's
   reply. *)
let handle_data_request t ~memory_object ~request ~offset ~length ~desired_access =
  match find t memory_object with
  | None -> ()
  | Some o ->
    t.rt_stats.Stats.s_requests <- t.rt_stats.Stats.s_requests + 1;
    let ps = t.rt_page_size in
    let first, npages =
      t.rt_policy.p_reshape t o ~first:(offset / ps) ~npages:(max 1 ((length + ps - 1) / ps))
    in
    let run = ref [] and run_start = ref 0 in
    let hole_start = ref 0 and hole_pages = ref 0 in
    let flush_run () =
      match !run with
      | [] -> ()
      | chunks ->
        data_provided t ~request ~offset:(!run_start * ps)
          ~data:(Bytes.concat Bytes.empty (List.rev chunks))
          ~lock_value:Prot.none;
        run := []
    in
    let flush_hole () =
      if !hole_pages > 0 then begin
        data_unavailable t ~request ~offset:(!hole_start * ps) ~size:(!hole_pages * ps);
        hole_pages := 0
      end
    in
    let i = ref 0 in
    while !i < npages do
      let page = first + !i in
      match t.rt_policy.p_read t o ~request ~page ~npages:(npages - !i) ~desired_access with
      | Data chunk ->
        flush_hole ();
        if !run = [] then run_start := page;
        run := chunk :: !run;
        let len = Bytes.length chunk in
        if len mod ps <> 0 || len = 0 then flush_run ();
        i := !i + max 1 (pages_in t len)
      | Unavailable ->
        flush_run ();
        if !hole_pages = 0 then hole_start := page;
        incr hole_pages;
        incr i
      | Defer ->
        flush_run ();
        flush_hole ();
        incr i
    done;
    flush_run ();
    flush_hole ()

(* A write may carry a whole run of adjacent pages: the policy stores the
   run in one call; {!dispatch} then releases it once. *)
let handle_data_write t ~memory_object ~offset ~data =
  match find t memory_object with
  | None -> ()
  | Some o ->
    t.rt_stats.Stats.s_writes <- t.rt_stats.Stats.s_writes + 1;
    t.rt_policy.p_write t o ~offset ~data;
    t.rt_stats.Stats.s_pages_written <-
      t.rt_stats.Stats.s_pages_written + pages_in t (Bytes.length data)

(* For policies whose backing store works a page at a time. *)
let iter_pages t ~offset ~data f =
  let ps = t.rt_page_size in
  for i = 0 to pages_in t (Bytes.length data) - 1 do
    f ~page:((offset / ps) + i) ~pos:(i * ps) ~len:(min ps (Bytes.length data - (i * ps)))
  done

(* Per-page unlock resolution, coalescing adjacent pages that resolve
   to the same lock value into one data_lock. *)
let handle_data_unlock t ~memory_object ~request ~offset ~length ~desired_access =
  match find t memory_object with
  | None -> ()
  | Some o ->
    t.rt_stats.Stats.s_unlocks <- t.rt_stats.Stats.s_unlocks + 1;
    let ps = t.rt_page_size in
    let first = offset / ps in
    let last = (offset + max 1 length - 1) / ps in
    let pending = ref None in
    let flush () =
      match !pending with
      | None -> ()
      | Some (start, n, lock_value) ->
        data_lock t ~request ~offset:(start * ps) ~length:(n * ps) ~lock_value;
        pending := None
    in
    for page = first to last do
      match t.rt_policy.p_unlock t o ~request ~page ~desired_access with
      | Defer_unlock -> flush ()
      | (Grant | Relock _) as r -> (
        let lv = match r with Relock v -> v | Grant | Defer_unlock -> Prot.none in
        match !pending with
        | Some (start, n, prev) when Prot.equal prev lv && start + n = page ->
          pending := Some (start, n + 1, lv)
        | Some _ ->
          flush ();
          pending := Some (page, 1, lv)
        | None -> pending := Some (page, 1, lv))
    done;
    flush ()

let handle_lock_completed t ~memory_object ~request ~offset ~length =
  match find t memory_object with
  | None -> ()
  | Some o -> t.rt_policy.p_lock_completed t o ~request ~offset ~length

let dispatch t ?adopt ~other (msg : Message.t) =
  if not (Pager_iface.is_pager_msg msg) then other msg
  else
    match Pager_iface.decode_k2m msg with
    | exception Pager_iface.Malformed _ -> ()
    | Pager_iface.Init { memory_object; request; name = _ } ->
      handle_init t adopt ~memory_object ~request
    | Pager_iface.Create { new_memory_object; request; name = _; size = _ } ->
      handle_init t adopt ~memory_object:new_memory_object ~request
    | Pager_iface.Data_request { memory_object; request; offset; length; desired_access } ->
      handle_data_request t ~memory_object ~request ~offset ~length ~desired_access
    | Pager_iface.Data_write { memory_object; offset; data; write_id } ->
      handle_data_write t ~memory_object ~offset ~data;
      (* The kernel passes its request port as the reply port, so the
         release (the manager's vm_deallocate of the region, §6.2.2)
         goes back to the kernel that shipped the run. An object
         terminated mid-write still releases: the data is dead, but the
         kernel's holding frames must come back. *)
      Option.iter
        (fun request -> send_m2k t (Pager_iface.Release_write { write_id }) ~request)
        msg.Message.header.reply
    | Pager_iface.Data_unlock { memory_object; request; offset; length; desired_access } ->
      handle_data_unlock t ~memory_object ~request ~offset ~length ~desired_access
    | Pager_iface.Lock_completed { memory_object; offset; length } ->
      handle_lock_completed t ~memory_object ~request:msg.Message.header.reply ~offset ~length

(* --- block-boundary splitting helpers ------------------------------------
   For a policy that stores pages in fixed-size blocks one at a time
   (Camelot's; Minimal_fs goes through Fs_layout's range calls): map a
   byte range onto the blocks, with read-merge-write for partial
   spans. *)
module Blocks = struct
  (* Call [f ~index ~block_off ~buf_off ~len] for each block-aligned
     span of [offset, offset+len). *)
  let iter_spans ~block_size ~offset ~len f =
    let pos = ref 0 in
    while !pos < len do
      let off = offset + !pos in
      let index = off / block_size in
      let block_off = off mod block_size in
      let span = min (len - !pos) (block_size - block_off) in
      f ~index ~block_off ~buf_off:!pos ~len:span;
      pos := !pos + span
    done

  (* Assemble [len] bytes starting at [offset]; blocks [read] does not
     have stay zero. *)
  let read_range ~block_size ~read ~offset ~len =
    let out = Bytes.make len '\000' in
    iter_spans ~block_size ~offset ~len (fun ~index ~block_off ~buf_off ~len ->
        match read ~index with
        | Some b -> Bytes.blit b block_off out buf_off len
        | None -> ());
    out

  (* Write [data] at [offset]; partial spans merge over what is stored
     (or zeroes) so neighbors within the block survive. *)
  let write_range ~block_size ~read ~write ~offset ~data =
    iter_spans ~block_size ~offset ~len:(Bytes.length data)
      (fun ~index ~block_off ~buf_off ~len ->
        if len = block_size then write ~index (Bytes.sub data buf_off len)
        else begin
          let b =
            match read ~index with Some b -> b | None -> Bytes.make block_size '\000'
          in
          Bytes.blit data buf_off b block_off len;
          write ~index b
        end)
end
