(* The traditional-UNIX comparison system: buffer cache and the
   read/write file path. *)

module Engine = Mach_sim.Engine
module Counters = Mach_util.Metrics.Counters
module Disk = Mach_hw.Disk
module Machine = Mach_hw.Machine
module Buffer_cache = Mach_baseline.Buffer_cache
module Unix_fs = Mach_baseline.Unix_fs
module Fs_layout = Mach_fs.Fs_layout

let check = Alcotest.check
let bs = 4096

let in_sim f =
  let eng = Engine.create () in
  let result = ref None in
  Engine.spawn eng ~name:"body" (fun () -> result := Some (f eng));
  Engine.run eng;
  match !result with Some r -> r | None -> Alcotest.fail "body blocked"

let make_disk eng = Disk.create eng ~name:"bd" ~blocks:512 ~block_size:bs ()

(* ---- buffer cache --------------------------------------------------------- *)

let test_cache_hit_miss () =
  in_sim (fun eng ->
      let disk = make_disk eng in
      let bc = Buffer_cache.create ~disk ~buffers:4 in
      Disk.write_raw disk ~block:7 (Bytes.make bs 'x');
      ignore (Buffer_cache.bread bc ~block:7);
      check Alcotest.int "first is a miss" 1 (Buffer_cache.misses bc);
      ignore (Buffer_cache.bread bc ~block:7);
      check Alcotest.int "second is a hit" 1 (Buffer_cache.hits bc);
      check Alcotest.int "one disk read" 1 (Counters.value (Disk.stats disk) "reads"))

let test_cache_lru_eviction () =
  in_sim (fun eng ->
      let disk = make_disk eng in
      let bc = Buffer_cache.create ~disk ~buffers:2 in
      ignore (Buffer_cache.bread bc ~block:0);
      ignore (Buffer_cache.bread bc ~block:1);
      ignore (Buffer_cache.bread bc ~block:0) (* refresh 0 *);
      ignore (Buffer_cache.bread bc ~block:2) (* evicts 1 *);
      Buffer_cache.reset_stats bc;
      ignore (Buffer_cache.bread bc ~block:0);
      check Alcotest.int "0 still cached" 1 (Buffer_cache.hits bc);
      ignore (Buffer_cache.bread bc ~block:1);
      check Alcotest.int "1 was evicted" 1 (Buffer_cache.misses bc))

let test_cache_delayed_write () =
  in_sim (fun eng ->
      let disk = make_disk eng in
      let bc = Buffer_cache.create ~disk ~buffers:2 in
      Buffer_cache.bwrite bc ~block:3 (Bytes.make bs 'w');
      check Alcotest.int "write delayed" 0 (Counters.value (Disk.stats disk) "writes");
      Buffer_cache.sync bc;
      check Alcotest.int "sync flushes" 1 (Counters.value (Disk.stats disk) "writes");
      check Alcotest.string "data on disk" "w"
        (String.make 1 (Bytes.get (Disk.read_raw disk ~block:3) 0)))

let test_cache_eviction_writes_back () =
  in_sim (fun eng ->
      let disk = make_disk eng in
      let bc = Buffer_cache.create ~disk ~buffers:1 in
      Buffer_cache.bwrite bc ~block:5 (Bytes.make bs 'd');
      ignore (Buffer_cache.bread bc ~block:6);
      (* evicts dirty 5 *)
      check Alcotest.int "writeback on eviction" 1 (Buffer_cache.writebacks bc);
      check Alcotest.string "dirty data persisted" "d"
        (String.make 1 (Bytes.get (Disk.read_raw disk ~block:5) 0)))

(* ---- unix fs --------------------------------------------------------------- *)

let make_ufs eng = Unix_fs.create Machine.uniprocessor ~disk:(make_disk eng) ~cache_buffers:8 ~format:true

let test_unix_rw_roundtrip () =
  in_sim (fun eng ->
      let ufs = make_ufs eng in
      Unix_fs.write_file ufs "f" (Bytes.of_string "unix file data");
      (match Unix_fs.read_file ufs "f" with
      | Some b -> check Alcotest.string "roundtrip" "unix file data" (Bytes.to_string b)
      | None -> Alcotest.fail "file missing");
      check Alcotest.(option int) "size" (Some 14) (Unix_fs.file_size ufs "f"))

let test_unix_partial_rw () =
  in_sim (fun eng ->
      let ufs = make_ufs eng in
      Unix_fs.write_file ufs "f" (Bytes.make 10000 'a');
      Unix_fs.write ufs "f" ~off:5000 (Bytes.of_string "XYZ");
      match Unix_fs.read ufs "f" ~off:4998 ~len:7 with
      | Some b -> check Alcotest.string "overlay" "aaXYZaa" (Bytes.to_string b)
      | None -> Alcotest.fail "read failed")

let test_unix_missing_file () =
  in_sim (fun eng ->
      let ufs = make_ufs eng in
      Alcotest.(check bool) "missing" true (Unix_fs.read_file ufs "nope" = None))

let test_unix_copy_cost_charged () =
  in_sim (fun eng ->
      let ufs = make_ufs eng in
      Unix_fs.write_file ufs "f" (Bytes.make (4 * bs) 'c');
      Unix_fs.sync ufs;
      (* Warm the cache. *)
      ignore (Unix_fs.read_file ufs "f");
      let t0 = Engine.now eng in
      ignore (Unix_fs.read_file ufs "f");
      let warm = Engine.now eng -. t0 in
      (* Fully cached, yet the copy still costs time — the §9 point. *)
      Alcotest.(check bool) "copies cost even when cached" true (warm > 100.0))

let test_unix_cross_block_read () =
  in_sim (fun eng ->
      let ufs = make_ufs eng in
      let data = Bytes.init (2 * bs) (fun i -> Char.chr (32 + (i mod 90))) in
      Unix_fs.write_file ufs "f" data;
      match Unix_fs.read ufs "f" ~off:(bs - 3) ~len:6 with
      | Some b -> check Alcotest.string "crosses boundary" (Bytes.to_string (Bytes.sub data (bs - 3) 6)) (Bytes.to_string b)
      | None -> Alcotest.fail "read failed")

(* ---- fs layout extras ------------------------------------------------------ *)

let test_layout_persistence () =
  in_sim (fun eng ->
      let disk = make_disk eng in
      let fs = Fs_layout.format disk ~max_files:16 in
      Fs_layout.write_file fs "persistent" (Bytes.of_string "still here");
      (* Remount from the same platters. *)
      let fs2 = Fs_layout.mount disk in
      (match Fs_layout.read_file fs2 "persistent" with
      | Some b -> check Alcotest.string "survives remount" "still here" (Bytes.to_string b)
      | None -> Alcotest.fail "file lost");
      check Alcotest.(list string) "listing" [ "persistent" ] (Fs_layout.list_files fs2))

let test_layout_delete_frees_blocks () =
  in_sim (fun eng ->
      let disk = make_disk eng in
      let fs = Fs_layout.format disk ~max_files:16 in
      (* Fill and delete repeatedly: blocks must be reclaimed. *)
      for i = 0 to 9 do
        Fs_layout.write_file fs "big" (Bytes.make (40 * bs) (Char.chr (65 + i)));
        Fs_layout.delete fs "big"
      done;
      Fs_layout.write_file fs "after" (Bytes.make (40 * bs) 'z');
      match Fs_layout.read_file fs "after" with
      | Some b -> check Alcotest.int "size" (40 * bs) (Bytes.length b)
      | None -> Alcotest.fail "write after churn failed")

let test_layout_indirect_blocks () =
  in_sim (fun eng ->
      let disk = Disk.create eng ~name:"big" ~blocks:512 ~block_size:bs () in
      let fs = Fs_layout.format disk ~max_files:4 in
      (* More than the 20 direct blocks. *)
      let data = Bytes.init (30 * bs) (fun i -> Char.chr (33 + (i / bs))) in
      Fs_layout.write_file fs "indirect" data;
      match Fs_layout.read_file fs "indirect" with
      | Some b ->
        check Alcotest.int "size" (30 * bs) (Bytes.length b);
        check Alcotest.bool "contents" true (Bytes.equal b data)
      | None -> Alcotest.fail "indirect file lost")

(* Model-based property: a random sequence of whole-file writes, range
   writes, reads and deletes agrees with a name -> bytes model, including
   across a remount, and no disk block ever belongs to two files. Sizes
   straddle the 20 direct blocks, so files grow into and shrink out of
   their indirect block. *)
let fs_layout_model_prop =
  let open QCheck2 in
  let name_gen = Gen.map (fun i -> Printf.sprintf "f%d" (i mod 3)) Gen.small_nat in
  (* Whole blocks, plus a partial tail half the time. *)
  let bytes_gen ~max_blocks =
    Gen.(
      map2
        (fun b tail -> (b * bs) + tail)
        (int_bound max_blocks)
        (oneof [ pure 0; int_bound (bs - 1) ]))
  in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map2 (fun n size -> `Write (n, size)) name_gen (bytes_gen ~max_blocks:32));
          ( 3,
            map3
              (fun n off len -> `Range (n, off, 1 + len))
              name_gen (bytes_gen ~max_blocks:30) (bytes_gen ~max_blocks:9) );
          (2, map (fun n -> `Read n) name_gen);
          (2, map (fun n -> `Delete n) name_gen);
          (1, pure `Remount);
        ])
  in
  let print_op = function
    | `Write (n, size) -> Printf.sprintf "write %s %d" n size
    | `Range (n, off, len) -> Printf.sprintf "range %s off=%d len=%d" n off len
    | `Read n -> "read " ^ n
    | `Delete n -> "delete " ^ n
    | `Remount -> "remount"
  in
  Test.make ~name:"fs_layout agrees with model under random ops" ~count:150
    ~print:Print.(list print_op)
    Gen.(list_size (int_range 1 30) op_gen)
    (fun ops ->
      let eng = Engine.create () in
      let ok = ref true in
      Engine.spawn eng ~name:"body" (fun () ->
          let disk = Disk.create eng ~name:"prop" ~blocks:1024 ~block_size:bs () in
          let fs = ref (Fs_layout.format disk ~max_files:16) in
          let model : (string, bytes) Hashtbl.t = Hashtbl.create 8 in
          let fill = ref 0 in
          (* Successive writes store different bytes, so a block shared
             by two files shows in their contents. *)
          let content len =
            incr fill;
            Bytes.init len (fun i -> Char.chr (33 + ((!fill + (i / 97)) mod 90)))
          in
          let agrees n =
            match (Fs_layout.read_file !fs n, Hashtbl.find_opt model n) with
            | Some a, Some b -> Bytes.equal a b
            | None, None -> true
            | Some _, None | None, Some _ -> false
          in
          (* Every block of every file has one owner. *)
          let owners_unique () =
            let seen = Hashtbl.create 256 in
            Hashtbl.fold
              (fun n data acc ->
                let unique = ref acc in
                for index = 0 to ((Bytes.length data + bs - 1) / bs) - 1 do
                  match Fs_layout.file_disk_block !fs n ~index with
                  | Some blk ->
                    if Hashtbl.mem seen blk then unique := false else Hashtbl.add seen blk ()
                  | None -> ()
                done;
                !unique)
              model true
          in
          List.iter
            (fun op ->
              match op with
              | `Write (n, size) ->
                let data = content size in
                Fs_layout.write_file !fs n data;
                Hashtbl.replace model n data
              | `Range (n, off, len) ->
                let data = content len in
                Fs_layout.write_range !fs n ~off data;
                let old = Option.value ~default:Bytes.empty (Hashtbl.find_opt model n) in
                let b = Bytes.make (max (Bytes.length old) (off + len)) '\000' in
                Bytes.blit old 0 b 0 (Bytes.length old);
                Bytes.blit data 0 b off len;
                Hashtbl.replace model n b
              | `Read n -> if not (agrees n && owners_unique ()) then ok := false
              | `Delete n ->
                Fs_layout.delete !fs n;
                Hashtbl.remove model n
              | `Remount -> fs := Fs_layout.mount disk)
            ops;
          (* Final audit. *)
          Hashtbl.iter (fun n _ -> if not (agrees n) then ok := false) model;
          if not (owners_unique ()) then ok := false;
          if List.length (Fs_layout.list_files !fs) <> Hashtbl.length model then ok := false);
      Engine.run eng;
      !ok)

let () =
  Alcotest.run "baseline"
    [
      ( "buffer-cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "delayed write" `Quick test_cache_delayed_write;
          Alcotest.test_case "eviction writes back" `Quick test_cache_eviction_writes_back;
        ] );
      ( "unix-fs",
        [
          Alcotest.test_case "roundtrip" `Quick test_unix_rw_roundtrip;
          Alcotest.test_case "partial read/write" `Quick test_unix_partial_rw;
          Alcotest.test_case "missing file" `Quick test_unix_missing_file;
          Alcotest.test_case "copy cost charged when cached" `Quick test_unix_copy_cost_charged;
          Alcotest.test_case "cross-block read" `Quick test_unix_cross_block_read;
        ] );
      ( "fs-layout",
        [
          Alcotest.test_case "persistence across mount" `Quick test_layout_persistence;
          Alcotest.test_case "delete frees blocks" `Quick test_layout_delete_frees_blocks;
          Alcotest.test_case "indirect blocks" `Quick test_layout_indirect_blocks;
          QCheck_alcotest.to_alcotest fs_layout_model_prop;
        ] );
    ]
