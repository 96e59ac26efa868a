(* Tests for the hardware substrate: protections, physical memory,
   pmap, disk, network, machine models. *)

module Engine = Mach_sim.Engine
module Counters = Mach_util.Metrics.Counters
module Prot = Mach_hw.Prot
module Phys_mem = Mach_hw.Phys_mem
module Pmap = Mach_hw.Pmap
module Disk = Mach_hw.Disk
module Net = Mach_hw.Net
module Machine = Mach_hw.Machine

let check = Alcotest.check

(* ---- prot --------------------------------------------------------------- *)

let test_prot_basics () =
  Alcotest.(check bool) "rw reads" true (Prot.can_read Prot.rw);
  Alcotest.(check bool) "rw writes" true (Prot.can_write Prot.rw);
  Alcotest.(check bool) "rw no exec" false (Prot.can_execute Prot.rw);
  Alcotest.(check bool) "none nothing" false (Prot.can_read Prot.none);
  check Alcotest.string "to_string" "rw-" (Prot.to_string Prot.rw);
  check Alcotest.string "all" "rwx" (Prot.to_string Prot.all)

let test_prot_algebra () =
  Alcotest.(check bool) "union" true Prot.(equal (union read write) rw);
  Alcotest.(check bool) "inter" true Prot.(equal (inter rw rx) read);
  Alcotest.(check bool) "diff" true Prot.(equal (diff all write) rx);
  Alcotest.(check bool) "subset yes" true (Prot.subset Prot.read Prot.rw);
  Alcotest.(check bool) "subset no" false (Prot.subset Prot.rw Prot.read)

let prot_prop =
  let open QCheck2 in
  let gen = Gen.map Prot.of_int (Gen.int_range 0 7) in
  Test.make ~name:"prot algebra laws" ~count:200 (Gen.pair gen gen) (fun (a, b) ->
      Prot.subset (Prot.inter a b) a
      && Prot.subset a (Prot.union a b)
      && Prot.equal (Prot.inter a (Prot.diff a b)) (Prot.diff a b)
      && Prot.equal (Prot.of_int (Prot.to_int a)) a
      && (not (Prot.subset a b && Prot.subset b a)) || Prot.equal a b)

(* ---- phys_mem ------------------------------------------------------------ *)

let test_phys_alloc_free () =
  let m = Phys_mem.create ~frames:4 ~page_size:4096 in
  check Alcotest.int "all free" 4 (Phys_mem.free_frames m);
  let f1 = Option.get (Phys_mem.alloc m) in
  let f2 = Option.get (Phys_mem.alloc m) in
  Alcotest.(check bool) "distinct" true (f1 <> f2);
  check Alcotest.int "two left" 2 (Phys_mem.free_frames m);
  Phys_mem.free m f1;
  check Alcotest.int "back to three" 3 (Phys_mem.free_frames m)

let test_phys_exhaustion () =
  let m = Phys_mem.create ~frames:2 ~page_size:4096 in
  ignore (Phys_mem.alloc m);
  ignore (Phys_mem.alloc m);
  check Alcotest.(option int) "exhausted" None (Phys_mem.alloc m)

let test_phys_zeroed_on_free () =
  let m = Phys_mem.create ~frames:2 ~page_size:4096 in
  let f = Option.get (Phys_mem.alloc m) in
  Phys_mem.write m f ~off:0 (Bytes.of_string "dirty");
  Phys_mem.free m f;
  let f2 = Option.get (Phys_mem.alloc m) in
  ignore f2;
  (* The freed frame comes back eventually; allocate the other one too. *)
  let f3 = Option.get (Phys_mem.alloc m) in
  let data = Phys_mem.read m f3 ~off:0 ~len:5 in
  check Alcotest.string "zeroed" "\000\000\000\000\000" (Bytes.to_string data)

let test_phys_double_free_rejected () =
  let m = Phys_mem.create ~frames:2 ~page_size:4096 in
  let f = Option.get (Phys_mem.alloc m) in
  Phys_mem.free m f;
  Alcotest.check_raises "double free" (Invalid_argument "Phys_mem: frame not allocated") (fun () ->
      Phys_mem.free m f)

let test_phys_copy_and_bits () =
  let m = Phys_mem.create ~frames:2 ~page_size:4096 in
  let a = Option.get (Phys_mem.alloc m) in
  let b = Option.get (Phys_mem.alloc m) in
  Phys_mem.write m a ~off:100 (Bytes.of_string "payload");
  Phys_mem.copy m ~src:a ~dst:b;
  check Alcotest.string "copied" "payload" (Bytes.to_string (Phys_mem.read m b ~off:100 ~len:7));
  Alcotest.(check bool) "ref clear" false (Phys_mem.referenced m a);
  Phys_mem.set_referenced m a true;
  Phys_mem.set_modified m a true;
  Alcotest.(check bool) "ref set" true (Phys_mem.referenced m a);
  Alcotest.(check bool) "mod set" true (Phys_mem.modified m a)

(* ---- pmap ----------------------------------------------------------------- *)

let test_pmap_enter_access () =
  let m = Phys_mem.create ~frames:4 ~page_size:4096 in
  let pm = Pmap.create m in
  let f = Option.get (Phys_mem.alloc m) in
  Pmap.enter pm ~vpn:5 ~frame:f ~prot:Prot.rw;
  (match Pmap.access pm ~vpn:5 ~write:false with
  | Ok frame -> check Alcotest.int "read hits" f frame
  | Error _ -> Alcotest.fail "read should succeed");
  Alcotest.(check bool) "ref bit set" true (Phys_mem.referenced m f);
  Alcotest.(check bool) "mod bit clear" false (Phys_mem.modified m f);
  (match Pmap.access pm ~vpn:5 ~write:true with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "write should succeed");
  Alcotest.(check bool) "mod bit set" true (Phys_mem.modified m f)

let test_pmap_protection_fault () =
  let m = Phys_mem.create ~frames:4 ~page_size:4096 in
  let pm = Pmap.create m in
  let f = Option.get (Phys_mem.alloc m) in
  Pmap.enter pm ~vpn:1 ~frame:f ~prot:Prot.read;
  (match Pmap.access pm ~vpn:1 ~write:true with
  | Error Pmap.Protection -> ()
  | Ok _ | Error Pmap.Missing -> Alcotest.fail "expected protection fault");
  match Pmap.access pm ~vpn:2 ~write:false with
  | Error Pmap.Missing -> ()
  | Ok _ | Error Pmap.Protection -> Alcotest.fail "expected missing fault"

let test_pmap_remove_range () =
  let m = Phys_mem.create ~frames:8 ~page_size:4096 in
  let pm = Pmap.create m in
  for vpn = 0 to 7 do
    let f = Option.get (Phys_mem.alloc m) in
    Pmap.enter pm ~vpn ~frame:f ~prot:Prot.rw
  done;
  Pmap.remove_range pm ~lo:2 ~hi:5;
  check Alcotest.int "four left" 4 (Pmap.resident_count pm);
  Alcotest.(check bool) "vpn 1 intact" true (Pmap.lookup pm ~vpn:1 <> None);
  Alcotest.(check bool) "vpn 3 gone" true (Pmap.lookup pm ~vpn:3 = None)

let test_pmap_frames_mapping () =
  let m = Phys_mem.create ~frames:4 ~page_size:4096 in
  let pm = Pmap.create m in
  let f = Option.get (Phys_mem.alloc m) in
  Pmap.enter pm ~vpn:10 ~frame:f ~prot:Prot.read;
  Pmap.enter pm ~vpn:20 ~frame:f ~prot:Prot.read;
  check Alcotest.(list int) "both vpns" [ 10; 20 ] (Pmap.frames_mapping pm f)

(* ---- disk ----------------------------------------------------------------- *)

let test_disk_roundtrip_and_timing () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d0" ~blocks:16 ~block_size:512 ~seek_us:1000.0 ~transfer_us_per_byte:1.0 () in
  let elapsed = ref 0.0 in
  Engine.spawn eng (fun () ->
      let t0 = Engine.now eng in
      Disk.write d ~block:3 (Bytes.of_string "hello disk");
      let b = Disk.read d ~block:3 in
      elapsed := Engine.now eng -. t0;
      check Alcotest.string "data" "hello disk" (Bytes.to_string (Bytes.sub b 0 10)));
  Engine.run eng;
  (* write: 1000 + 10*1; read: 1000 + 512*1 *)
  check (Alcotest.float 1e-6) "timing" (1000.0 +. 10.0 +. 1000.0 +. 512.0) !elapsed;
  check Alcotest.int "ops" 2 (Disk.ops d);
  check Alcotest.int "bytes written" 10 (Disk.bytes_written d)

let test_disk_serialises_requests () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d1" ~blocks:4 ~block_size:512 ~seek_us:100.0 ~transfer_us_per_byte:0.0 () in
  let finish_times = ref [] in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        ignore (Disk.read d ~block:i);
        finish_times := Engine.now eng :: !finish_times)
  done;
  Engine.run eng;
  check Alcotest.(list (float 1e-6)) "one at a time" [ 100.0; 200.0; 300.0 ]
    (List.rev !finish_times)

let test_disk_raw_uncharged () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d2" ~blocks:4 ~block_size:512 () in
  Disk.write_raw d ~block:0 (Bytes.of_string "raw");
  check Alcotest.string "raw roundtrip" "raw" (Bytes.to_string (Bytes.sub (Disk.read_raw d ~block:0) 0 3));
  check Alcotest.int "no charged ops" 0 (Disk.ops d)

let test_disk_reattach_shares_bytes () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d3" ~blocks:4 ~block_size:512 () in
  Disk.write_raw d ~block:1 (Bytes.of_string "persist");
  let eng2 = Engine.create () in
  let d2 = Disk.reattach d eng2 in
  check Alcotest.string "contents survive" "persist"
    (Bytes.to_string (Bytes.sub (Disk.read_raw d2 ~block:1) 0 7));
  check Alcotest.int "stats reset" 0 (Disk.ops d2)

let test_disk_reattach_shares_later_writes () =
  (* Blocks are allocated on first write: one written through either
     view after the reattach is still seen by the other. *)
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d5" ~blocks:4 ~block_size:512 () in
  let d2 = Disk.reattach d (Engine.create ()) in
  check Alcotest.string "unwritten block reads as zeroes" (String.make 512 '\000')
    (Bytes.to_string (Disk.read_raw d2 ~block:2));
  Disk.write_raw d2 ~block:2 (Bytes.of_string "late");
  check Alcotest.string "first write through the new view" "late"
    (Bytes.to_string (Bytes.sub (Disk.read_raw d ~block:2) 0 4))

let test_disk_multi_block_write () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d6" ~blocks:8 ~block_size:512 ~seek_us:1000.0 ~transfer_us_per_byte:1.0 () in
  let elapsed = ref 0.0 in
  let data = Bytes.init 1300 (fun i -> Char.chr (65 + (i / 512))) in
  Engine.spawn eng (fun () ->
      Disk.write_raw d ~block:4 (Bytes.make 512 'z');
      let t0 = Engine.now eng in
      Disk.write d ~block:2 data;
      elapsed := Engine.now eng -. t0;
      Alcotest.check_raises "past the last block"
        (Invalid_argument "Disk d6: write past the last block") (fun () ->
          Disk.write d ~block:7 (Bytes.make 513 'x')));
  Engine.run eng;
  check (Alcotest.float 1e-6) "one seek for three blocks" (1000.0 +. 1300.0) !elapsed;
  check Alcotest.int "one op" 1 (Counters.value (Disk.stats d) "writes");
  check Alcotest.int "bytes written" 1300 (Disk.bytes_written d);
  check Alcotest.string "first block" (String.make 512 'A') (Bytes.to_string (Disk.read_raw d ~block:2));
  check Alcotest.string "second block" (String.make 512 'B') (Bytes.to_string (Disk.read_raw d ~block:3));
  check Alcotest.string "short last block keeps its tail"
    (String.make 276 'C' ^ String.make 236 'z')
    (Bytes.to_string (Disk.read_raw d ~block:4))

let test_disk_multi_block_read () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d7" ~blocks:8 ~block_size:512 ~seek_us:1000.0 ~transfer_us_per_byte:1.0 () in
  Disk.write_raw d ~block:2 (Bytes.make 512 'A');
  Disk.write_raw d ~block:4 (Bytes.make 512 'C');
  let elapsed = ref 0.0 in
  let got = ref Bytes.empty in
  Engine.spawn eng (fun () ->
      let t0 = Engine.now eng in
      got := Disk.read_blocks d ~block:2 ~count:3;
      elapsed := Engine.now eng -. t0;
      Alcotest.check_raises "past the last block"
        (Invalid_argument "Disk d7: read past the last block") (fun () ->
          ignore (Disk.read_blocks d ~block:6 ~count:3)));
  Engine.run eng;
  check (Alcotest.float 1e-6) "one seek for three blocks" (1000.0 +. (3.0 *. 512.0)) !elapsed;
  check Alcotest.int "one op" 1 (Counters.value (Disk.stats d) "reads");
  check Alcotest.int "three blocks" 3 (Counters.value (Disk.stats d) "blocks_read");
  check Alcotest.int "bytes read" (3 * 512) (Disk.bytes_read d);
  check Alcotest.string "blocks in order, unwritten reads as zeroes"
    (String.make 512 'A' ^ String.make 512 '\000' ^ String.make 512 'C')
    (Bytes.to_string !got)

let test_disk_bounds () =
  let eng = Engine.create () in
  let d = Disk.create eng ~name:"d4" ~blocks:4 ~block_size:512 () in
  Engine.spawn eng (fun () ->
      Alcotest.check_raises "out of range" (Invalid_argument "Disk d4: block 9 out of range")
        (fun () -> ignore (Disk.read d ~block:9)));
  Engine.run eng

(* ---- net ------------------------------------------------------------------ *)

let test_net_latency_and_fifo () =
  let eng = Engine.create () in
  let net = Net.create eng ~latency_us:100.0 ~us_per_byte:1.0 () in
  let arrivals = ref [] in
  Engine.spawn eng (fun () ->
      (* Big message first, then small: FIFO per channel means the small
         one must NOT overtake. *)
      Net.deliver net ~src:0 ~dst:1 ~bytes:1000 (fun () -> arrivals := ("big", Engine.now eng) :: !arrivals);
      Net.deliver net ~src:0 ~dst:1 ~bytes:10 (fun () -> arrivals := ("small", Engine.now eng) :: !arrivals));
  Engine.run eng;
  (match List.rev !arrivals with
  | [ ("big", t1); ("small", t2) ] ->
    check (Alcotest.float 1e-6) "big arrival" 1100.0 t1;
    check (Alcotest.float 1e-6) "small queued behind" 1110.0 t2
  | _ -> Alcotest.fail "wrong arrival order");
  check Alcotest.int "messages" 2 (Counters.value (Net.stats net) "messages");
  check Alcotest.int "bytes" 1010 (Counters.value (Net.stats net) "bytes_carried")

let test_net_local_free () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let fired = ref false in
  Net.deliver net ~src:3 ~dst:3 ~bytes:100000 (fun () -> fired := true);
  Alcotest.(check bool) "same host is immediate" true !fired;
  check Alcotest.int "not counted" 0 (Counters.value (Net.stats net) "messages")

let test_net_independent_channels () =
  let eng = Engine.create () in
  let net = Net.create eng ~latency_us:10.0 ~us_per_byte:1.0 () in
  let t_ab = ref 0.0 and t_cd = ref 0.0 in
  Engine.spawn eng (fun () ->
      Net.deliver net ~src:0 ~dst:1 ~bytes:1000 (fun () -> t_ab := Engine.now eng);
      Net.deliver net ~src:2 ~dst:3 ~bytes:1000 (fun () -> t_cd := Engine.now eng));
  Engine.run eng;
  check (Alcotest.float 1e-6) "a->b" 1010.0 !t_ab;
  (* The distinct channel is not serialised behind a->b. *)
  check (Alcotest.float 1e-6) "c->d parallel" 1010.0 !t_cd

(* ---- machine --------------------------------------------------------------- *)

let test_machine_presets () =
  check Alcotest.string "uma" "UMA" (Machine.class_to_string Machine.multimax.Machine.mp_class);
  check Alcotest.string "numa" "NUMA" (Machine.class_to_string Machine.butterfly.Machine.mp_class);
  check Alcotest.string "norma" "NORMA" (Machine.class_to_string Machine.hypercube.Machine.mp_class);
  (* The paper's ratios. *)
  let b = Machine.butterfly in
  (match b.Machine.remote_access_us with
  | Some r -> check (Alcotest.float 1e-9) "butterfly 10x" 10.0 (r /. b.Machine.local_access_us)
  | None -> Alcotest.fail "butterfly has remote access");
  (match Machine.multimax.Machine.remote_access_us with
  | Some r -> Alcotest.(check bool) "multimax sub-microsecond" true (r < 1.0)
  | None -> Alcotest.fail "multimax has remote access");
  Alcotest.(check bool) "hypercube no remote" true (Machine.hypercube.Machine.remote_access_us = None);
  Alcotest.(check bool) "hypercube hundreds of us" true
    (Machine.hypercube.Machine.net_latency_us >= 100.0)

let test_machine_access_us () =
  let p = Machine.butterfly in
  check (Alcotest.float 1e-9) "local words" 5.0 (Machine.access_us p ~remote:false ~words:10);
  check (Alcotest.float 1e-9) "remote words" 50.0 (Machine.access_us p ~remote:true ~words:10);
  Alcotest.check_raises "norma remote access rejected"
    (Invalid_argument "Machine.access_us: NORMA machines have no remote memory access") (fun () ->
      ignore (Machine.access_us Machine.hypercube ~remote:true ~words:1))

let test_machine_custom () =
  let p = Machine.custom ~cpus:99 ~local_access_us:0.25 Machine.Numa in
  check Alcotest.int "cpus" 99 p.Machine.cpus;
  check (Alcotest.float 1e-9) "local" 0.25 p.Machine.local_access_us;
  Alcotest.(check bool) "class" true (p.Machine.mp_class = Machine.Numa)

let () =
  Alcotest.run "hw"
    [
      ( "prot",
        [
          Alcotest.test_case "basics" `Quick test_prot_basics;
          Alcotest.test_case "algebra" `Quick test_prot_algebra;
          QCheck_alcotest.to_alcotest prot_prop;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "exhaustion" `Quick test_phys_exhaustion;
          Alcotest.test_case "zeroed on free" `Quick test_phys_zeroed_on_free;
          Alcotest.test_case "double free rejected" `Quick test_phys_double_free_rejected;
          Alcotest.test_case "copy and ref/mod bits" `Quick test_phys_copy_and_bits;
        ] );
      ( "pmap",
        [
          Alcotest.test_case "enter and access" `Quick test_pmap_enter_access;
          Alcotest.test_case "protection fault" `Quick test_pmap_protection_fault;
          Alcotest.test_case "remove range" `Quick test_pmap_remove_range;
          Alcotest.test_case "frames mapping" `Quick test_pmap_frames_mapping;
        ] );
      ( "disk",
        [
          Alcotest.test_case "roundtrip and timing" `Quick test_disk_roundtrip_and_timing;
          Alcotest.test_case "serialises requests" `Quick test_disk_serialises_requests;
          Alcotest.test_case "raw access uncharged" `Quick test_disk_raw_uncharged;
          Alcotest.test_case "reattach shares bytes" `Quick test_disk_reattach_shares_bytes;
          Alcotest.test_case "reattach shares blocks written later" `Quick
            test_disk_reattach_shares_later_writes;
          Alcotest.test_case "multi-block write is one seek" `Quick test_disk_multi_block_write;
          Alcotest.test_case "multi-block read is one seek" `Quick test_disk_multi_block_read;
          Alcotest.test_case "bounds" `Quick test_disk_bounds;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency and fifo" `Quick test_net_latency_and_fifo;
          Alcotest.test_case "local delivery free" `Quick test_net_local_free;
          Alcotest.test_case "independent channels" `Quick test_net_independent_channels;
        ] );
      ( "machine",
        [
          Alcotest.test_case "paper presets" `Quick test_machine_presets;
          Alcotest.test_case "access_us" `Quick test_machine_access_us;
          Alcotest.test_case "custom" `Quick test_machine_custom;
        ] );
    ]
