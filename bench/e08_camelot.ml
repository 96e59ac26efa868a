(* E8 — §8.3: Camelot on the external pager interface. Measures commit
   throughput with write-ahead logging, verifies the WAL invariant under
   paging (the same transactions on a host with half the segment's
   frames), exercises crash recovery, and compares against a naive
   synchronous write-through design (every update forces a data-disk
   write), quantifying what mapped recoverable memory buys. *)

open Mach
open Common
module Camelot = Mach_pagers.Camelot

let page = 4096

type point = {
  p_txns : int;
  p_elapsed_us : float;
  p_log_forces : int;
  p_violations : int;
  p_data_ops : int;
}

let segment_pages = 256

let run_camelot ?(frames = Kernel.default_config.Kernel.phys_frames) ~txns ~updates_per_txn () =
  let sys = Kernel.create_system ~config:{ Kernel.default_config with Kernel.phys_frames = frames } () in
  let log_disk = Disk.create sys.Kernel.engine ~name:"log" ~blocks:4096 ~block_size:page () in
  let data_disk = Disk.create sys.Kernel.engine ~name:"data" ~blocks:4096 ~block_size:page () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let cam = Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"txn" () in
      ignore
        (Thread.spawn client ~name:"txn.main" (fun () ->
             let server = Camelot.service_port cam in
             let base =
               ok_exn "map"
                 (Camelot.Client.map_segment client ~server "db" ~size:(segment_pages * page))
             in
             let rng = Rng.create 99 in
             let t0 = Engine.now sys.Kernel.engine in
             for _ = 1 to txns do
               let tid = ok_exn "begin" (Camelot.Client.begin_txn client ~server) in
               for _ = 1 to updates_per_txn do
                 (* 16-aligned so an 8-byte update never crosses a page. *)
                 let offset = 16 * Rng.int rng (segment_pages * page / 16) in
                 ok_exn "store"
                   (Camelot.Client.store client ~server tid ~segment:"db" ~base ~offset
                      (Bytes.make 8 'u'))
               done;
               ok_exn "commit" (Camelot.Client.commit client ~server tid)
             done;
             result :=
               Some
                 {
                   p_txns = txns;
                   p_elapsed_us = Engine.now sys.Kernel.engine -. t0;
                   p_log_forces = Camelot.log_forces cam;
                   p_violations = Camelot.wal_violations cam;
                   p_data_ops = Disk.ops data_disk;
                 })));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  match !result with Some r -> r | None -> failwith "E8 camelot run deadlocked"

(* The strawman: no mapped recoverable memory, every update writes the
   data disk synchronously (no log needed, no cache leverage). *)
let run_write_through ~txns ~updates_per_txn =
  let sys = Kernel.create_system () in
  let data_disk = Disk.create sys.Kernel.engine ~name:"wt-data" ~blocks:4096 ~block_size:page () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fs = Mach_fs.Fs_layout.format data_disk ~max_files:8 in
      let rng = Rng.create 99 in
      let t0 = Engine.now sys.Kernel.engine in
      for _ = 1 to txns do
        for _ = 1 to updates_per_txn do
          let offset = 16 * Rng.int rng (segment_pages * page / 16) in
          let idx = offset / page in
          let block =
            match Mach_fs.Fs_layout.read_block fs "db" ~index:idx with
            | Some b -> b
            | None -> Bytes.make page '\000'
          in
          Bytes.blit (Bytes.make 8 'u') 0 block (offset mod page) 8;
          Mach_fs.Fs_layout.write_block fs "db" ~index:idx block
        done
      done;
      result :=
        Some
          {
            p_txns = txns;
            p_elapsed_us = Engine.now sys.Kernel.engine -. t0;
            p_log_forces = 0;
            p_violations = 0;
            p_data_ops = Disk.ops data_disk;
          });
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  match !result with Some r -> r | None -> failwith "E8 write-through run deadlocked"

(* Crash/recovery demonstration: commit one transaction, then leave a
   second open while memory pressure steals its dirty page to the data
   disk (the WAL rule forces its log record first); crash, reboot, and
   count redo/undo. Recovery must redo the first and undo the second. *)
let recovery_frames = 64

let run_recovery () =
  let scratch = Engine.create () in
  let log_disk = Disk.create scratch ~name:"rlog" ~blocks:1024 ~block_size:page () in
  let data_disk = Disk.create scratch ~name:"rdata" ~blocks:1024 ~block_size:page () in
  let epoch ~format ~frames f =
    let sys =
      Kernel.create_system ~config:{ Kernel.default_config with Kernel.phys_frames = frames } ()
    in
    let log_disk = Disk.reattach log_disk sys.Kernel.engine in
    let data_disk = Disk.reattach data_disk sys.Kernel.engine in
    let out = ref None in
    Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
        let cam = Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format () in
        let client = Task.create sys.Kernel.kernel ~name:"txn" () in
        ignore
          (Thread.spawn client ~name:"txn.main" (fun () ->
               let server = Camelot.service_port cam in
               let base =
                 ok_exn "map"
                   (Camelot.Client.map_segment client ~server "db" ~size:(8 * page))
               in
               out := Some (f cam client ~server ~base))));
    Engine.run sys.Kernel.engine;
    note_registry sys.Kernel.kernel;
    match !out with Some r -> r | None -> failwith "E8 recovery epoch deadlocked"
  in
  epoch ~format:true ~frames:recovery_frames (fun _cam client ~server ~base ->
      let t1 = ok_exn "begin" (Camelot.Client.begin_txn client ~server) in
      ok_exn "store"
        (Camelot.Client.store client ~server t1 ~segment:"db" ~base ~offset:0
           (Bytes.of_string "SURVIVES"));
      ok_exn "commit" (Camelot.Client.commit client ~server t1);
      let t2 = ok_exn "begin" (Camelot.Client.begin_txn client ~server) in
      ok_exn "store"
        (Camelot.Client.store client ~server t2 ~segment:"db" ~base ~offset:page
           (Bytes.of_string "VANISHES"));
      (* Dirtying twice the host's frames of scratch memory makes
         pageout launder the oldest dirty pages: the two above. *)
      let pages = 2 * recovery_frames in
      let spare = Syscalls.vm_allocate client ~size:(pages * page) ~anywhere:true () in
      for p = 0 to pages - 1 do
        ok_exn "dirty" (Syscalls.write_bytes client ~addr:(spare + (p * page)) (Bytes.make 1 's') ())
      done);
  (* crash *)
  epoch ~format:false ~frames:Kernel.default_config.Kernel.phys_frames
    (fun cam client ~server:_ ~base ->
      let committed =
        match Syscalls.read_bytes client ~addr:base ~len:8 () with
        | Ok b -> Bytes.to_string b = "SURVIVES"
        | Error _ -> false
      in
      let uncommitted_gone =
        match Syscalls.read_bytes client ~addr:(base + page) ~len:8 () with
        | Ok b -> Bytes.to_string b <> "VANISHES"
        | Error _ -> false
      in
      (Camelot.recovered_redo cam, Camelot.recovered_undo cam, committed, uncommitted_gone))

let systems =
  [
    ("camelot", "Camelot (WAL + mapped memory)");
    ("paged", "Camelot, half the segment's frames");
    ("wt", "synchronous write-through");
  ]

let body scale =
  let txns, updates_per_txn = match scale with Full -> (50, 20) | Small -> (5, 5) in
  let cam = run_camelot ~txns ~updates_per_txn () in
  let paged = run_camelot ~frames:(segment_pages / 2) ~txns ~updates_per_txn () in
  let wt = run_write_through ~txns ~updates_per_txn in
  let redo, undo, committed, gone = run_recovery () in
  let b v = if v then 1.0 else 0.0 in
  [ ("txns", fi txns); ("updates_per_txn", fi updates_per_txn) ]
  @ List.concat_map
      (fun (key, (p : point)) ->
        [
          (key ^ "_txns_per_s", fi p.p_txns /. (p.p_elapsed_us /. 1e6));
          (key ^ "_data_ops", fi p.p_data_ops);
          (key ^ "_log_forces", fi p.p_log_forces);
          (key ^ "_wal_violations", fi p.p_violations);
        ])
      [ ("camelot", cam); ("paged", paged); ("wt", wt) ]
  @ [ ("redo", fi redo); ("undo", fi undo); ("committed_survives", b committed);
      ("uncommitted_rolled_back", b gone) ]

let tables pairs =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E8: %d transactions x %d updates on mapped recoverable memory (Section 8.3)"
           (geti pairs "txns") (geti pairs "updates_per_txn"))
      ~columns:
        [ "system"; "txns/s"; "data-disk ops"; "log forces"; "WAL violations" ]
  in
  List.iter
    (fun (key, name) ->
      let at f = get pairs (key ^ f) in
      Table.row t
        [ name; Printf.sprintf "%.1f" (at "_txns_per_s"); us0 (at "_data_ops");
          us0 (at "_log_forces"); us0 (at "_wal_violations") ])
    systems;
  let t2 =
    Table.create ~title:"E8b: crash recovery" ~columns:[ "check"; "result" ]
  in
  let flag key = string_of_bool (get pairs key = 1.0) in
  Table.row t2 [ "log records redone (committed txn)"; us0 (get pairs "redo") ];
  Table.row t2 [ "log records undone (uncommitted txn)"; us0 (get pairs "undo") ];
  Table.row t2 [ "committed data survives crash"; flag "committed_survives" ];
  Table.row t2 [ "uncommitted data rolled back"; flag "uncommitted_rolled_back" ];
  [ t; t2 ]

let experiment =
  {
    id = "E8";
    title = "Camelot recoverable memory";
    paper_claim =
      "Camelot keeps permanent objects in mapped virtual memory with write-ahead logging; the \
       disk manager forces log records before flushed pages reach disk, clients need no buffer \
       management, and recoverable data is written directly to its permanent home (Section 8.3).";
    body;
    tables;
  }
