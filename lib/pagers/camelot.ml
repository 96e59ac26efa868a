module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Disk = Mach_hw.Disk
module Codec = Mach_util.Codec
module Task = Mach_kernel.Task
module Thread = Mach_kernel.Thread
module Syscalls = Mach_kernel.Syscalls
module Rpc = Mach_kernel.Rpc
module Mos = Mach.Memory_object_server
module Fs_layout = Mach_fs.Fs_layout

type tid = int

(* ---- write-ahead log --------------------------------------------------- *)

module Log = struct
  type record =
    | Update of { lsn : int; tid : tid; segment : string; offset : int; old_v : bytes; new_v : bytes }
    | Commit of { lsn : int; tid : tid }
    | Abort of { lsn : int; tid : tid }

  let lsn_of = function Update { lsn; _ } | Commit { lsn; _ } | Abort { lsn; _ } -> lsn

  type t = {
    disk : Disk.t;
    mutable next_lsn : int;
    mutable next_block : int;
    mutable pending : record list;  (* newest first *)
    mutable forced_lsn : int;
    mutable forces : int;
  }

  let block_magic = 0x4C4F_4731 (* "LOG1" *)

  let create disk = { disk; next_lsn = 1; next_block = 0; pending = []; forced_lsn = 0; forces = 0 }

  let append t mk =
    let lsn = t.next_lsn in
    t.next_lsn <- lsn + 1;
    let r = mk lsn in
    t.pending <- r :: t.pending;
    lsn

  let encode_record r =
    let e = Codec.Enc.create () in
    (match r with
    | Update { lsn; tid; segment; offset; old_v; new_v } ->
      Codec.Enc.u8 e 1;
      Codec.Enc.int e lsn;
      Codec.Enc.int e tid;
      Codec.Enc.string e segment;
      Codec.Enc.int e offset;
      Codec.Enc.bytes e old_v;
      Codec.Enc.bytes e new_v
    | Commit { lsn; tid } ->
      Codec.Enc.u8 e 2;
      Codec.Enc.int e lsn;
      Codec.Enc.int e tid
    | Abort { lsn; tid } ->
      Codec.Enc.u8 e 3;
      Codec.Enc.int e lsn;
      Codec.Enc.int e tid);
    Codec.Enc.to_bytes e

  let decode_record b =
    let d = Codec.Dec.of_bytes b in
    match Codec.Dec.u8 d with
    | 1 ->
      let lsn = Codec.Dec.int d in
      let tid = Codec.Dec.int d in
      let segment = Codec.Dec.string d in
      let offset = Codec.Dec.int d in
      let old_v = Codec.Dec.bytes d in
      let new_v = Codec.Dec.bytes d in
      Update { lsn; tid; segment; offset; old_v; new_v }
    | 2 ->
      let lsn = Codec.Dec.int d in
      let tid = Codec.Dec.int d in
      Commit { lsn; tid }
    | 3 ->
      let lsn = Codec.Dec.int d in
      let tid = Codec.Dec.int d in
      Abort { lsn; tid }
    | _ -> failwith "bad log record"

  (* Pack pending records into blocks (whole records per block) and
     write them out. *)
  let force t ~upto =
    if upto > t.forced_lsn && t.pending <> [] then begin
      t.forces <- t.forces + 1;
      let bs = Disk.block_size t.disk in
      let records = List.rev t.pending in
      t.pending <- [];
      let flush_block recs =
        match recs with
        | [] -> ()
        | _ ->
          let e = Codec.Enc.create () in
          Codec.Enc.u32 e block_magic;
          Codec.Enc.u16 e (List.length recs);
          List.iter (fun r -> Codec.Enc.bytes e (encode_record r)) (List.rev recs);
          let b = Codec.Enc.to_bytes e in
          assert (Bytes.length b <= bs);
          Disk.write t.disk ~block:t.next_block b;
          t.next_block <- t.next_block + 1
      in
      let rec pack acc acc_size = function
        | [] -> flush_block acc
        | r :: rest ->
          let enc = encode_record r in
          let rsize = Bytes.length enc + 4 in
          if rsize + 6 > bs then failwith "log record larger than a log block"
          else if acc_size + rsize > bs then begin
            flush_block acc;
            pack [ r ] (6 + rsize) rest
          end
          else pack (r :: acc) (acc_size + rsize) rest
      in
      pack [] 6 records;
      t.forced_lsn <- t.next_lsn - 1
    end

  (* Recovery scan: every block that made it to disk, in order. *)
  let read_all disk =
    let rec go block acc =
      if block >= Disk.blocks disk then List.rev acc
      else begin
        let raw = Disk.read_raw disk ~block in
        let d = Codec.Dec.of_bytes raw in
        match Codec.Dec.u32 d with
        | m when m <> block_magic -> List.rev acc
        | _ ->
          let count = Codec.Dec.u16 d in
          let recs = List.init count (fun _ -> decode_record (Codec.Dec.bytes d)) in
          go (block + 1) (List.rev_append recs acc)
      end
    in
    go 0 []
end

(* ---- server ------------------------------------------------------------ *)

module Rt = Mach.Pager_runtime

type segment = {
  sg_name : string;
  mutable sg_size : int;
  mutable sg_mapping : int option;  (** server's own mapping, for undo *)
  sg_page_lsn : (int, int) Hashtbl.t;  (** page index → latest update LSN *)
}

type txn = { tx_id : tid; mutable tx_updates : (string * int * bytes) list (* seg, off, old *); mutable tx_open : bool }

type t = {
  rt : segment Rt.t;
  srv : Mos.t;
  service : Message.port;
  log : Log.t;
  fs : Fs_layout.t;  (** data disk *)
  page_size : int;
  by_name : (string, segment Rt.obj) Hashtbl.t;
  txns : (tid, txn) Hashtbl.t;
  mutable next_tid : int;
  mutable wal_violations : int;
  mutable recovered_redo : int;
  mutable recovered_undo : int;
}

let server_task t = Mos.task t.srv
let log_forces t = t.log.Log.forces
let wal_violations t = t.wal_violations
let recovered_redo t = t.recovered_redo
let recovered_undo t = t.recovered_undo
let runtime_stats t = Rt.stats t.rt

let id_map_segment = 3201
let id_begin = 3202
let id_log_write = 3203
let id_commit = 3204
let id_abort = 3205

let get_segment t name ~size =
  match Hashtbl.find_opt t.by_name name with
  | Some o ->
    let s = o.Rt.o_data in
    if size > s.sg_size then s.sg_size <- size;
    o
  | None ->
    Fs_layout.create t.fs name;
    let sg_object = Mos.create_memory_object t.srv () in
    let s = { sg_name = name; sg_size = size; sg_mapping = None; sg_page_lsn = Hashtbl.create 32 } in
    let o = Rt.register t.rt ~memory_object:sg_object s in
    Hashtbl.replace t.by_name name o;
    o

let segment_object t name ~size = (get_segment t name ~size).Rt.o_port

(* --- pager policy --------------------------------------------------------
   The runtime owns the request splitting; camelot contributes the
   recoverable-storage policy: pages live on the data disk, and the §8.3
   write-ahead rule is enforced once per write run, at the top of
   [p_write]. *)

(* Apply an update to the data disk, splitting across block boundaries
   (log records may straddle pages). Each block is its own disk write. *)
let apply_to_disk t ~segment ~offset data =
  Rt.Blocks.write_range
    ~block_size:(Fs_layout.block_size t.fs)
    ~read:(fun ~index -> Fs_layout.read_block t.fs segment ~index)
    ~write:(fun ~index b -> Fs_layout.write_block t.fs segment ~index b)
    ~offset ~data

(* The §8.3 rule: log records first, then the pages. A write may carry a
   run of adjacent pages; the log is forced ONCE, to the highest LSN any
   page in the run carries, before any of them reaches the data disk —
   run-sized writes amortise the force as well as the message. *)
let force_for_write t seg ~offset ~data =
  let ps = t.page_size in
  let first_idx = offset / ps in
  let npages = max 1 ((Bytes.length data + ps - 1) / ps) in
  let need = ref 0 in
  for i = 0 to npages - 1 do
    let lsn = Option.value ~default:0 (Hashtbl.find_opt seg.sg_page_lsn (first_idx + i)) in
    if lsn > !need then need := lsn
  done;
  if t.log.Log.forced_lsn < !need then Log.force t.log ~upto:!need;
  if t.log.Log.forced_lsn < !need then t.wal_violations <- t.wal_violations + 1

let policy get =
  {
    Rt.default_policy with
    Rt.p_read =
      (fun rt o ~request:_ ~page ~npages:_ ~desired_access:_ ->
        let t = get () in
        let seg = o.Rt.o_data in
        let ps = Rt.page_size rt in
        (* The file's size says whether the page was ever written,
           without a disk read. *)
        match Fs_layout.file_size t.fs seg.sg_name with
        | Some size when page * ps < size ->
          Rt.Data
            (Rt.Blocks.read_range ~block_size:(Fs_layout.block_size t.fs)
               ~read:(fun ~index -> Fs_layout.read_block t.fs seg.sg_name ~index)
               ~offset:(page * ps) ~len:ps)
        | Some _ | None -> Rt.Unavailable (* never written: zero-fill *));
    p_write =
      (fun _ o ~offset ~data ->
        let t = get () in
        let seg = o.Rt.o_data in
        force_for_write t seg ~offset ~data;
        apply_to_disk t ~segment:seg.sg_name ~offset data);
  }

(* --- transactions ------------------------------------------------------- *)

(* Undo through the server's own mapping so every cached copy sees it;
   §6.1's advice applies — this runs on a worker thread while the
   service thread stays free to answer the resulting data requests. *)
let server_mapping t (o : segment Rt.obj) =
  let seg = o.Rt.o_data in
  match seg.sg_mapping with
  | Some addr -> addr
  | None ->
    let addr =
      Syscalls.vm_allocate_with_pager (server_task t) ~size:seg.sg_size ~anywhere:true
        ~memory_object:o.Rt.o_port ~offset:0 ()
    in
    seg.sg_mapping <- Some addr;
    addr

let undo_txn t txn =
  List.iter
    (fun (seg_name, offset, old_v) ->
      match Hashtbl.find_opt t.by_name seg_name with
      | None -> ()
      | Some seg -> (
        let base = server_mapping t seg in
        match Syscalls.write_bytes (server_task t) ~addr:(base + offset) old_v () with
        | Ok () -> ()
        | Error _ ->
          (* Fall back to the disk image (mapping unavailable). *)
          apply_to_disk t ~segment:seg_name ~offset old_v))
    txn.tx_updates

(* --- RPC ---------------------------------------------------------------- *)

(* Answer [Ok items] (sent after the status) or [Error detail]. *)
let answer t msg r =
  Rpc.reply ~send:(Syscalls.msg_send (server_task t)) msg
    (match r with
    | Ok items -> Rpc.status ~detail:"" true :: items
    | Error detail -> [ Rpc.status ~detail false ])

let on_other t (msg : Message.t) =
  let id = msg.Message.header.msg_id in
  match Message.data_exn msg with
  | exception Not_found -> ()
  | payload -> (
    let d = Codec.Dec.of_bytes payload in
    try
      if id = id_map_segment then begin
        let name = Codec.Dec.string d in
        let size = Codec.Dec.int d in
        let o = get_segment t name ~size in
        answer t msg
          (Ok
             [
               Message.Caps [ { Message.cap_port = o.Rt.o_port; cap_right = Message.Send_right } ];
               Rpc.int o.Rt.o_data.sg_size;
             ])
      end
      else if id = id_begin then begin
        let tid = t.next_tid in
        t.next_tid <- tid + 1;
        Hashtbl.replace t.txns tid { tx_id = tid; tx_updates = []; tx_open = true };
        answer t msg (Ok [ Rpc.int tid ])
      end
      else if id = id_log_write then begin
        let tid = Codec.Dec.int d in
        let seg_name = Codec.Dec.string d in
        let offset = Codec.Dec.int d in
        let old_v = Codec.Dec.bytes d in
        let new_v = Codec.Dec.bytes d in
        match (Hashtbl.find_opt t.txns tid, Hashtbl.find_opt t.by_name seg_name) with
        | Some txn, Some seg when txn.tx_open ->
          let lsn =
            Log.append t.log (fun lsn ->
                Log.Update { lsn; tid; segment = seg_name; offset; old_v; new_v })
          in
          txn.tx_updates <- (seg_name, offset, old_v) :: txn.tx_updates;
          (* Every page the update touches carries the LSN. *)
          let first = offset / t.page_size in
          let last = (offset + Bytes.length new_v - 1) / t.page_size in
          for p = first to last do
            Hashtbl.replace seg.Rt.o_data.sg_page_lsn p lsn
          done;
          answer t msg (Ok [])
        | Some _, Some _ -> answer t msg (Error "transaction closed")
        | None, _ -> answer t msg (Error "unknown transaction")
        | _, None -> answer t msg (Error "unknown segment")
      end
      else if id = id_commit then begin
        let tid = Codec.Dec.int d in
        match Hashtbl.find_opt t.txns tid with
        | Some txn when txn.tx_open ->
          txn.tx_open <- false;
          let lsn = Log.append t.log (fun lsn -> Log.Commit { lsn; tid }) in
          Log.force t.log ~upto:lsn;
          answer t msg (Ok [])
        | Some _ -> answer t msg (Error "transaction closed")
        | None -> answer t msg (Error "unknown transaction")
      end
      else if id = id_abort then begin
        let tid = Codec.Dec.int d in
        match Hashtbl.find_opt t.txns tid with
        | Some txn when txn.tx_open ->
          txn.tx_open <- false;
          ignore (Log.append t.log (fun lsn -> Log.Abort { lsn; tid }));
          (* Undo on a worker thread: the service loop must stay free to
             answer the data requests the undo writes will fault in. *)
          ignore
            (Thread.spawn (server_task t) ~name:"camelot.undo" (fun () ->
                 undo_txn t txn;
                 answer t msg (Ok [])))
        | Some _ -> answer t msg (Error "transaction closed")
        | None -> answer t msg (Error "unknown transaction")
      end
      else answer t msg (Error "unknown operation")
    with
    | Codec.Dec.Truncated -> answer t msg (Error "malformed request")
    | Fs_layout.Fs_error reason -> answer t msg (Error reason))

(* --- recovery ----------------------------------------------------------- *)

let recover t =
  let records = Log.read_all t.log.Log.disk in
  (* Resume LSN/block counters past what survived. *)
  List.iter
    (fun r ->
      if Log.lsn_of r >= t.log.Log.next_lsn then t.log.Log.next_lsn <- Log.lsn_of r + 1)
    records;
  t.log.Log.forced_lsn <- t.log.Log.next_lsn - 1;
  let rec count_blocks b =
    if b >= Disk.blocks t.log.Log.disk then b
    else
      let raw = Disk.read_raw t.log.Log.disk ~block:b in
      let d = Codec.Dec.of_bytes raw in
      if (try Codec.Dec.u32 d = Log.block_magic with _ -> false) then count_blocks (b + 1) else b
  in
  t.log.Log.next_block <- count_blocks 0;
  let winners = Hashtbl.create 16 in
  List.iter (function Log.Commit { tid; _ } -> Hashtbl.replace winners tid () | _ -> ()) records;
  (* Redo winners forward. *)
  List.iter
    (function
      | Log.Update { tid; segment; offset; new_v; _ } when Hashtbl.mem winners tid ->
        Fs_layout.create t.fs segment;
        apply_to_disk t ~segment ~offset new_v;
        t.recovered_redo <- t.recovered_redo + 1
      | _ -> ())
    records;
  (* Undo losers backward. *)
  List.iter
    (function
      | Log.Update { tid; segment; offset; old_v; _ } when not (Hashtbl.mem winners tid) ->
        Fs_layout.create t.fs segment;
        apply_to_disk t ~segment ~offset old_v;
        t.recovered_undo <- t.recovered_undo + 1
      | _ -> ())
    (List.rev records)

(* --- boot ---------------------------------------------------------------- *)

let start kernel ?(name = "camelot") ~log_disk ~data_disk ~format () =
  let srv_task = Task.create kernel ~name () in
  List.iter (Mach_kernel.Kernel.register_disk kernel) [ log_disk; data_disk ];
  let service_name = Syscalls.port_allocate srv_task ~backlog:128 () in
  Syscalls.port_enable srv_task service_name;
  let service = Port_space.lookup_exn (Task.space srv_task) service_name in
  let t_ref = ref None in
  let get () = match !t_ref with Some t -> t | None -> assert false in
  let rt, srv =
    Mos.serve ~on_other:(fun _rt _srv msg -> on_other (get ()) msg) srv_task (policy get)
  in
  let fs = if format then Fs_layout.format data_disk ~max_files:128 else Fs_layout.mount data_disk in
  let t =
    {
      rt;
      srv;
      service;
      log = Log.create log_disk;
      fs;
      page_size = kernel.Mach_kernel.Ktypes.k_kctx.Mach_vm.Kctx.page_size;
      by_name = Hashtbl.create 16;
      txns = Hashtbl.create 32;
      next_tid = 1;
      wal_violations = 0;
      recovered_redo = 0;
      recovered_undo = 0;
    }
  in
  t_ref := Some t;
  if not format then recover t;
  t

let service_port t = t.service

module Client = struct
  type error = [ `Server_error of string | `Ipc_failure | `Memory of Mach_vm.Access.error ]

  let pp_error fmt = function
    | `Server_error s -> Format.fprintf fmt "server error: %s" s
    | `Ipc_failure -> Format.fprintf fmt "ipc failure"
    | `Memory e -> Format.fprintf fmt "memory: %a" Mach_vm.Access.pp_error e

  (* Send one marshalled request; [k] reads the results off the reply. *)
  let call task ~server ~msg_id enc k =
    Result.map_error
      (function
        | `Refused detail -> `Server_error detail
        | `Malformed -> `Server_error "malformed reply"
        | (`Ipc_failure | `Server_error _ | `Memory _) as e -> e)
      (Result.bind (Rpc.call task ~dest:server ~msg_id [ Message.data enc ]) k)

  let map_segment task ~server name ~size =
    call task ~server ~msg_id:id_map_segment
      (fun e ->
        Codec.Enc.string e name;
        Codec.Enc.int e size)
      (fun reply ->
        match (reply.Message.body, Rpc.decode reply Codec.Dec.int) with
        | Message.Caps [ cap ] :: _, Ok stored ->
          Ok
            (Syscalls.vm_allocate_with_pager task ~size:(max size stored) ~anywhere:true
               ~memory_object:cap.Message.cap_port ~offset:0 ())
        | _ -> Error `Malformed)

  let begin_txn task ~server =
    call task ~server ~msg_id:id_begin (fun e -> Codec.Enc.string e "") (fun reply ->
        Rpc.decode reply Codec.Dec.int)

  let store task ~server tid ~segment ~base ~offset data =
    (* Read the old value, log, then update in place. *)
    match Syscalls.read_bytes task ~addr:(base + offset) ~len:(Bytes.length data) () with
    | Error e -> Error (`Memory e)
    | Ok old_v ->
      call task ~server ~msg_id:id_log_write
        (fun e ->
          Codec.Enc.int e tid;
          Codec.Enc.string e segment;
          Codec.Enc.int e offset;
          Codec.Enc.bytes e old_v;
          Codec.Enc.bytes e data)
        (fun _ ->
          Syscalls.write_bytes task ~addr:(base + offset) data ()
          |> Result.map_error (fun e -> `Memory e))

  let commit task ~server tid =
    call task ~server ~msg_id:id_commit (fun e -> Codec.Enc.int e tid) (fun _ -> Ok ())

  let abort task ~server tid =
    call task ~server ~msg_id:id_abort (fun e -> Codec.Enc.int e tid) (fun _ -> Ok ())
end
