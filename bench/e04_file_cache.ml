(* E4 — §9: "the bulk of physical memory as a cache of secondary
   storage" vs the traditional UNIX 10%-of-RAM buffer cache, measured
   on the compilation workload. The paper reports a cached compile
   running twice as fast as under SunOS and a 10x reduction in I/O
   operations for a large system compilation. *)

open Mach
open Common
module Compile_sim = Mach_workloads.Compile_sim
module Unix_fs = Mach_baseline.Unix_fs
module Minimal_fs = Mach_pagers.Minimal_fs

let page = 4096

let project ~sources =
  let rng = Rng.create 0x4D414348 in
  Compile_sim.generate rng ~sources ~source_bytes:(12 * 1024) ~headers:24
    ~header_bytes:(16 * 1024) ~headers_per_source:8

(* Both machines: 4 MB of physical memory, the same disk geometry. *)
let frames = 1024

(* A build's measurement plus the blocks its disk moved. The paper's
   "10x fewer I/O operations" counts blocks; [disk_ops] counts
   transfers, and one transfer can carry a run of blocks. *)
let measure_blocks engine ops proj disk =
  let moved () =
    let n = Counters.value (Disk.stats disk) in
    n "blocks_read" + n "blocks_written"
  in
  let b0 = moved () in
  let m = Compile_sim.measure_build engine ops proj in
  (m, moved () - b0)

let run_unix ~builds proj =
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"unix-disk" ~blocks:4096 ~block_size:page () in
  let results = ref [] in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      (* The classic configuration: buffer cache is 10% of memory. *)
      let ufs =
        Unix_fs.create sys.Kernel.kernel.Ktypes.k_params ~disk ~cache_buffers:(frames / 10)
          ~format:true
      in
      let ops = Compile_sim.unix_ops ufs in
      Compile_sim.populate ops (Rng.create 7) proj;
      Unix_fs.sync ufs;
      Disk.reset_stats disk;
      for _ = 1 to builds do
        results := measure_blocks sys.Kernel.engine ops proj disk :: !results
      done);
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  List.rev !results

(* Pager protocol traffic during the measured builds: messages sent
   (data_requests), pages received (pageins) and the ratio — cluster-in
   should bring in clearly more than one page per request. *)
type pager_traffic = { pt_requests : int; pt_pageins : int }

let run_mach ~builds proj =
  let config = { Kernel.default_config with Kernel.phys_frames = frames } in
  let sys = Kernel.create_system ~config () in
  let disk = Disk.create sys.Kernel.engine ~name:"mach-disk" ~blocks:4096 ~block_size:page () in
  let results = ref [] in
  let st = sys.Kernel.kernel.Ktypes.k_kctx.Kctx.stats in
  let base = ref (0, 0) in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"cc" () in
      ignore
        (Thread.spawn client ~name:"cc.main" (fun () ->
             let ops =
               Compile_sim.mach_ops client ~server:(Minimal_fs.service_port fsrv) ~disk
             in
             Compile_sim.populate ops (Rng.create 7) proj;
             Disk.reset_stats disk;
             base := (Counters.get st Vm_types.s_data_requests, Counters.get st Vm_types.s_pageins);
             for _ = 1 to builds do
               results := measure_blocks sys.Kernel.engine ops proj disk :: !results
             done)));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  let req0, in0 = !base in
  let traffic =
    {
      pt_requests = Counters.get st Vm_types.s_data_requests - req0;
      pt_pageins = Counters.get st Vm_types.s_pageins - in0;
    }
  in
  (List.rev !results, traffic)

(* Write-side traffic: the link/emit phase of the build — sequentially
   dirtying a mapped output image larger than memory — on a
   memory-constrained machine, so the pageout daemon must clean while
   the writer runs. Runs of adjacent dirty pages coalesce into single
   run-sized data_writes (the write-side mirror of cluster-in). *)
type write_traffic = { wt_writes : int; wt_pageouts : int; wt_laundered : int }

let run_writeback ~frames:wb_frames ~image_pages =
  let config = { Kernel.default_config with Kernel.phys_frames = wb_frames } in
  let sys = Kernel.create_system ~config () in
  let disk =
    Disk.create sys.Kernel.engine ~name:"mach-wb-disk" ~blocks:(4 * image_pages)
      ~block_size:page ()
  in
  let st = sys.Kernel.kernel.Ktypes.k_kctx.Kctx.stats in
  let base = ref (0, 0, 0) in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let client = Task.create sys.Kernel.kernel ~name:"ld" () in
      ignore
        (Thread.spawn client ~name:"ld.main" (fun () ->
             (match
                Minimal_fs.Client.write_file client ~server "image"
                  (Bytes.make (image_pages * page) '\000')
              with
             | Ok () | Error _ -> ());
             match Minimal_fs.Client.map_file client ~server "image" with
             | Error _ -> ()
             | Ok (addr, _size) ->
               base :=
                 ( Counters.get st Vm_types.s_data_writes,
                   Counters.get st Vm_types.s_pageouts,
                   Counters.get st Vm_types.s_laundered );
               for i = 0 to image_pages - 1 do
                 ignore (ok_exn "emit" (Syscalls.touch client ~addr:(addr + (i * page)) ~write:true ()))
               done)));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  let w0, p0, l0 = !base in
  {
    wt_writes = Counters.get st Vm_types.s_data_writes - w0;
    wt_pageouts = Counters.get st Vm_types.s_pageouts - p0;
    wt_laundered = Counters.get st Vm_types.s_laundered - l0;
  }

let body scale =
  let sources, builds, wb_frames, image_pages =
    match scale with Full -> (48, 3, 256, 512) | Small -> (6, 2, 64, 128)
  in
  let proj = project ~sources in
  let unix_runs = run_unix ~builds proj in
  let mach_runs, traffic = run_mach ~builds proj in
  let wtraffic = run_writeback ~frames:wb_frames ~image_pages in
  let per_build =
    List.concat
      (List.mapi
         (fun i ((u, ub), (m, mb)) ->
           let open Compile_sim in
           let k name = Printf.sprintf "%s_%d" name (i + 1) in
           [
             (k "unix_elapsed_us", u.elapsed_us);
             (k "mach_elapsed_us", m.elapsed_us);
             (k "unix_io", fi u.disk_ops);
             (k "mach_io", fi m.disk_ops);
             (k "unix_blocks", fi ub);
             (k "mach_blocks", fi mb);
           ])
         (List.combine unix_runs mach_runs))
  in
  (* The headline for the gate: the first (cold) and last (warm) builds'
     speedups and the warm build's disk transfers and blocks. *)
  let (cu, _), (cm, _) = (List.hd unix_runs, List.hd mach_runs) in
  let (u, ub), (m, mb) = (List.nth unix_runs (builds - 1), List.nth mach_runs (builds - 1)) in
  let open Compile_sim in
  [
    ("cold_speedup", cu.elapsed_us /. cm.elapsed_us);
    ("warm_speedup", u.elapsed_us /. m.elapsed_us);
    ("unix_warm_io", fi u.disk_ops);
    ("mach_warm_io", fi m.disk_ops);
    ("unix_warm_blocks", fi ub);
    ("mach_warm_blocks", fi mb);
    ("project_bytes", fi (project_bytes proj));
  ]
  @ per_build
  @ [
      ("data_requests", fi traffic.pt_requests);
      ("pageins", fi traffic.pt_pageins);
      ("wb_data_writes", fi wtraffic.wt_writes);
      ("wb_pageouts", fi wtraffic.wt_pageouts);
      ("wb_laundered", fi wtraffic.wt_laundered);
    ]

let tables pairs =
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E4: compilation on a %d KB project, 4 MB memory (Section 9: ~2x elapsed, ~10x fewer \
            I/Os when cached)"
           (geti pairs "project_bytes" / 1024))
      ~columns:
        [
          "build";
          "UNIX elapsed s";
          "Mach elapsed s";
          "speedup";
          "UNIX disk ops";
          "Mach disk ops";
          "I/O ratio";
          "UNIX blocks";
          "Mach blocks";
          "block ratio";
        ]
  in
  let io_ratio u m =
    if m = 0.0 then Printf.sprintf "%.0fx / 0" u else Printf.sprintf "%.1fx" (u /. m)
  in
  let per a b = if b = 0.0 then "-" else Printf.sprintf "%.2f" (a /. b) in
  List.iter
    (fun (i, _) ->
      let at name = get pairs (name ^ "_" ^ i) in
      let u = at "unix_elapsed_us" and m = at "mach_elapsed_us" in
      Table.row t
        [
          (if i = "1" then "1 (cold)" else i ^ " (warm)");
          Printf.sprintf "%.2f" (u /. 1e6);
          Printf.sprintf "%.2f" (m /. 1e6);
          ratio u m;
          us0 (at "unix_io");
          us0 (at "mach_io");
          io_ratio (at "unix_io") (at "mach_io");
          us0 (at "unix_blocks");
          us0 (at "mach_blocks");
          io_ratio (at "unix_blocks") (at "mach_blocks");
        ])
    (with_prefix pairs "unix_elapsed_us_");
  let p =
    Table.create ~title:"E4: Mach pager traffic over the measured builds (cluster-in)"
      ~columns:[ "data_requests (messages)"; "pageins (pages)"; "pages per request" ]
  in
  let g = get pairs in
  Table.row p [ us0 (g "data_requests"); us0 (g "pageins"); per (g "pageins") (g "data_requests") ];
  let w =
    Table.create
      ~title:
        "E4: Mach write traffic, emitting a 2 MB image through a 1 MB cache (laundered runs)"
      ~columns:
        [ "data_writes (messages)"; "pageouts (pages)"; "laundered"; "pages per data_write" ]
  in
  Table.row w
    [ us0 (g "wb_data_writes"); us0 (g "wb_pageouts"); us0 (g "wb_laundered");
      per (g "wb_pageouts") (g "wb_data_writes") ];
  [ t; p; w ]

let experiment =
  {
    id = "E4";
    title = "File cache (compilation)";
    paper_claim =
      "Compilation of a program cached in memory under Mach is twice as fast as under SunOS, \
       and a large system compilation does 10x fewer I/O operations, because Mach uses the bulk \
       of physical memory as a file cache instead of a fixed 10% buffer cache.";
    body;
    tables;
  }
