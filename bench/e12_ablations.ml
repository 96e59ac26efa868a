(* E12 — ablations of the design choices DESIGN.md calls out:

   A1. Shadow-chain collapse. Generations of fork → child-writes →
       parent-continues grow a shadow chain per entry; with collapse the
       chain stays flat, without it the depth grows by one per
       generation. A cold fault costs the same either way: the cost
       model charges nothing per chain level walked, so the price of a
       deep chain here is memory (one object per level), not time.

   A2. pager_cache (object caching). The §9 file-cache win depends on
       the manager granting the kernel permission to keep file pages
       after unmapping; with it off, every re-read goes to disk.

   A3. The reserved pool (§6.2.3). With reserved frames, pageout always
       has headroom; with none, heavy dirtying risks deadlock — we
       measure how close to empty memory gets. *)

open Mach
open Common
module Minimal_fs = Mach_pagers.Minimal_fs

let page = 4096

(* --- A1: shadow chains ---------------------------------------------------- *)

let chain_depth_of task =
  List.fold_left
    (fun acc e ->
      match e.Vm_map.backing with
      | Vm_map.Direct d -> max acc (Vm_object.chain_depth d.Vm_map.d_obj)
      | Vm_map.Shared _ -> acc)
    0
    (Vm_map.entries (Task.map task))

let run_chain ~generations ~collapse =
  run_system (fun sys task ->
      let kctx = sys.Kernel.kernel.Ktypes.k_kctx in
      kctx.Kctx.enable_collapse <- collapse;
      let addr = Syscalls.vm_allocate task ~size:(4 * page) ~anywhere:true () in
      ignore (ok_exn "seed" (Syscalls.write_bytes task ~addr (Bytes.make 8  'g') ()));
      (* Each generation: fork a child that writes one page and exits;
         then the parent writes, accumulating shadows. *)
      for gen = 1 to generations do
        let child = Task.create sys.Kernel.kernel ~parent:task ~name:(Printf.sprintf "g%d" gen) () in
        let fin = Ivar.create () in
        ignore
          (Thread.spawn child ~name:(Printf.sprintf "g%d.main" gen) (fun () ->
               ignore (Syscalls.write_bytes child ~addr (Bytes.make 8 (Char.chr (64 + (gen mod 60)))) ());
               Ivar.fill fin ()));
        Ivar.read fin;
        Task.terminate child;
        ignore (ok_exn "parent write" (Syscalls.write_bytes task ~addr (Bytes.make 8 'p') ()))
      done;
      let depth = chain_depth_of task in
      (* Cost of a fresh read fault at the end of the chain: invalidate
         and refault. *)
      (match Vm_map.pmap (Task.map task) with
      | Some pm -> Mach_hw.Pmap.remove pm ~vpn:(addr / page)
      | None -> ());
      let (), fault_us =
        timed sys.Kernel.engine (fun () -> ignore (Syscalls.touch task ~addr ~write:false ()))
      in
      let collapses = Counters.get (Kernel.stats sys.Kernel.kernel) Vm_types.s_collapses in
      (depth, fault_us, collapses))

(* --- A2: pager_cache -------------------------------------------------------- *)

let run_cache_ablation ~enable_cache =
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"abl-disk" ~blocks:2048 ~block_size:page () in
  let out = ref None in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~enable_cache ~disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"reader" () in
      ignore
        (Thread.spawn client ~name:"reader.main" (fun () ->
             let server = Minimal_fs.service_port fsrv in
             let data = Bytes.make (16 * page) 'c' in
             (match Minimal_fs.Client.write_file client ~server "f" data with
             | Ok () -> ()
             | Error _ -> failwith "write");
             Disk.reset_stats disk;
             (* Map the object directly five times, unmapping in
                between: with pager_cache the kernel keeps the pages;
                without, the object is terminated on each unmap. *)
             for _ = 1 to 5 do
               match Minimal_fs.Client.map_file client ~server "f" with
               | Ok (addr, size) ->
                 ignore (Syscalls.read_bytes client ~addr ~len:size ());
                 Syscalls.vm_deallocate client ~addr ~size
               | Error _ -> failwith "map"
             done;
             out := Some (Counters.value (Disk.stats disk) "reads"))));
  Engine.run sys.Kernel.engine;
  match !out with Some r -> r | None -> failwith "A2 deadlocked"

(* --- A3: reserved pool ------------------------------------------------------- *)

let run_reserve_ablation ~reserved_frames =
  let config =
    { Kernel.default_config with Kernel.phys_frames = 96; reserved_frames = Some reserved_frames }
  in
  run_system ~config (fun sys task ->
      let npages = 160 in
      let addr = Syscalls.vm_allocate task ~size:(npages * page) ~anywhere:true () in
      let min_free = ref max_int in
      for i = 0 to npages - 1 do
        ignore (Syscalls.write_bytes task ~addr:(addr + (i * page)) (Bytes.make 8 'r') ());
        min_free := min !min_free (Kernel.free_frames sys.Kernel.kernel)
      done;
      !min_free)

let body scale =
  let gens = match scale with Full -> 24 | Small -> 4 in
  let d1, f1, c1 = run_chain ~generations:gens ~collapse:true in
  let d2, f2, c2 = run_chain ~generations:gens ~collapse:false in
  let cache_on = run_cache_ablation ~enable_cache:true in
  let cache_off = run_cache_ablation ~enable_cache:false in
  let reserve_some = run_reserve_ablation ~reserved_frames:4 in
  let reserve_none = run_reserve_ablation ~reserved_frames:0 in
  [
    ("generations", fi gens);
    ("collapse_depth", fi d1);
    ("collapse_fault_us", f1);
    ("collapses", fi c1);
    ("no_collapse_depth", fi d2);
    ("no_collapse_fault_us", f2);
    ("no_collapse_collapses", fi c2);
    ("cache_disk_reads", fi cache_on);
    ("no_cache_disk_reads", fi cache_off);
    ("reserve_min_free", fi reserve_some);
    ("no_reserve_min_free", fi reserve_none);
  ]

let tables pairs =
  let g = get pairs in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E12/A1: shadow chains after %d fork generations" (geti pairs "generations"))
      ~columns:[ "configuration"; "max chain depth"; "cold fault us"; "collapses" ]
  in
  Table.row t
    [ "collapse enabled (Mach)"; us0 (g "collapse_depth"); us (g "collapse_fault_us");
      us0 (g "collapses") ];
  Table.row t
    [ "collapse disabled"; us0 (g "no_collapse_depth"); us (g "no_collapse_fault_us");
      us0 (g "no_collapse_collapses") ];
  let t2 =
    Table.create ~title:"E12/A2: pager_cache permission (5 re-reads of a 64 KB file)"
      ~columns:[ "configuration"; "disk reads" ]
  in
  Table.row t2 [ "pager_cache true (Mach fs server)"; us0 (g "cache_disk_reads") ];
  Table.row t2 [ "pager_cache false"; us0 (g "no_cache_disk_reads") ];
  let t3 =
    Table.create ~title:"E12/A3: reserved pool under heavy dirtying (96-frame machine)"
      ~columns:[ "configuration"; "minimum free frames seen" ]
  in
  Table.row t3 [ "4 reserved frames"; us0 (g "reserve_min_free") ];
  Table.row t3 [ "no reserve"; us0 (g "no_reserve_min_free") ];
  [ t; t2; t3 ]

let experiment =
  {
    id = "E12";
    title = "Design ablations";
    paper_claim =
      "Ablations of load-bearing design choices: shadow-chain collapse keeps COW chains flat; \
       pager_cache is what turns physical memory into a file cache (Section 9); the reserved \
       pool keeps the pageout path alive under pressure (Section 6.2.3).";
    body;
    tables;
  }
