(* machsim: run parameterised scenarios on the simulated Mach kernel.

   Subcommands:
     machsim compile  --sources 48 --builds 3 --frames 1024 --cache-pct 10
     machsim netmem   --pages 32 --ops 400 --write-ratio 0.1 [--drop 0.1 --dup 0.05 --seed 7]
     machsim migrate  --pages 128 --strategy cor --touched 0.5
     machsim machines
     machsim stat     [--json]
     machsim trace    [--filter vm] [--span N] [--limit 40]
*)

open Mach
module Table = Mach_util.Table
module Rng = Mach_util.Rng
module Compile_sim = Mach_workloads.Compile_sim
module Access_patterns = Mach_workloads.Access_patterns
module Minimal_fs = Mach_pagers.Minimal_fs
module Netmem = Mach_pagers.Netmem
module Migrator = Mach_pagers.Migrator
module Unix_fs = Mach_baseline.Unix_fs
module Chaos = Mach_sim.Chaos

let page = 4096

(* ---- compile ----------------------------------------------------------- *)

let run_compile sources builds frames cache_pct =
  let proj =
    Compile_sim.generate (Rng.create 0x4D414348) ~sources ~source_bytes:(12 * 1024) ~headers:24
      ~header_bytes:(16 * 1024) ~headers_per_source:8
  in
  Printf.printf "project: %d sources + 24 headers = %d KB; memory %d KB; UNIX cache %d%%\n\n"
    sources
    (Compile_sim.project_bytes proj / 1024)
    (frames * page / 1024) cache_pct;
  (* UNIX baseline. *)
  let unix_results = ref [] in
  let sys = Kernel.create_system () in
  let disk = Disk.create sys.Kernel.engine ~name:"unix-disk" ~blocks:8192 ~block_size:page () in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let ufs =
        Unix_fs.create sys.Kernel.kernel.Ktypes.k_params ~disk
          ~cache_buffers:(max 1 (frames * cache_pct / 100))
          ~format:true
      in
      let ops = Compile_sim.unix_ops ufs in
      Compile_sim.populate ops (Rng.create 7) proj;
      Unix_fs.sync ufs;
      Disk.reset_stats disk;
      for _ = 1 to builds do
        unix_results := Compile_sim.measure_build sys.Kernel.engine ops proj :: !unix_results
      done);
  Engine.run sys.Kernel.engine;
  (* Mach. *)
  let mach_results = ref [] in
  let config = { Kernel.default_config with Kernel.phys_frames = frames } in
  let sys = Kernel.create_system ~config () in
  let mdisk = Disk.create sys.Kernel.engine ~name:"mach-disk" ~blocks:8192 ~block_size:page () in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk:mdisk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"cc" () in
      ignore
        (Thread.spawn client ~name:"cc.main" (fun () ->
             let ops = Compile_sim.mach_ops client ~server:(Minimal_fs.service_port fsrv) ~disk:mdisk in
             Compile_sim.populate ops (Rng.create 7) proj;
             Disk.reset_stats mdisk;
             for _ = 1 to builds do
               mach_results := Compile_sim.measure_build sys.Kernel.engine ops proj :: !mach_results
             done)));
  Engine.run sys.Kernel.engine;
  let t =
    Table.create ~title:"compile workload"
      ~columns:[ "build"; "UNIX s"; "Mach s"; "speedup"; "UNIX I/Os"; "Mach I/Os" ]
  in
  List.iteri
    (fun i (u, m) ->
      let open Compile_sim in
      Table.row t
        [
          string_of_int (i + 1);
          Printf.sprintf "%.2f" (u.elapsed_us /. 1e6);
          Printf.sprintf "%.2f" (m.elapsed_us /. 1e6);
          Printf.sprintf "%.2fx" (u.elapsed_us /. m.elapsed_us);
          string_of_int u.disk_ops;
          string_of_int m.disk_ops;
        ])
    (List.combine (List.rev !unix_results) (List.rev !mach_results));
  Table.print t;
  0

(* ---- netmem ------------------------------------------------------------ *)

let run_netmem pages ops write_ratio hosts drop dup seed =
  let chaos =
    if drop > 0.0 || dup > 0.0 then begin
      let c = Chaos.create ~seed () in
      Chaos.set_default_plan c
        { Chaos.perfect with Chaos.drop; duplicate = dup };
      Some c
    end
    else None
  in
  let cluster = Kernel.create_cluster ~hosts ?chaos () in
  let done_count = ref 0 in
  let t_done = ref 0.0 in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      for host = 0 to hosts - 1 do
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "client-%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "client-%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               let rng = Rng.create (host + 100) in
               let trace =
                 Access_patterns.working_set ~pages ~ops ~write_ratio ~hot_fraction:0.25
                   ~hot_bias:0.8 rng
               in
               List.iter
                 (fun { Access_patterns.ap_page; ap_write } ->
                   ignore
                     (Syscalls.touch task
                        ~addr:(addr + (ap_page * page))
                        ~write:ap_write
                        ~policy:(Fault.Abort_after 30_000_000.0) ()))
                 trace;
               incr done_count;
               if !done_count = hosts then begin
                 t_done := Engine.now cluster.Kernel.c_engine;
                 Printf.printf
                   "%d hosts x %d ops, write ratio %.2f: %.2f ms total, %.1f us/access, %d \
                    invalidations, %d downgrades, %d write grants\n"
                   hosts ops write_ratio (!t_done /. 1e3)
                   (!t_done /. float_of_int (hosts * ops))
                   (Netmem.invalidations nm) (Netmem.downgrades nm) (Netmem.grants nm)
               end))
      done);
  Engine.run cluster.Kernel.c_engine;
  (match cluster.Kernel.c_chaos with
  | None -> ()
  | Some c ->
    Printf.printf "chaos (seed %d): %s; %d retransmits recovered the losses\n" seed
      (String.concat ", "
         (List.filter_map
            (fun (k, v) -> if v > 0 then Some (Printf.sprintf "%d %s" v k) else None)
            (Counters.to_list (Chaos.stats c))))
      (Counters.value (Mach_hw.Net.stats cluster.Kernel.c_net) "retransmits"));
  if !done_count = hosts then 0 else 1

(* ---- migrate ----------------------------------------------------------- *)

let run_migrate pages strategy touched =
  let strategy =
    match strategy with
    | "eager" -> Migrator.Eager_copy
    | "cor" -> Migrator.Copy_on_reference
    | s when String.length s > 3 && String.sub s 0 3 = "pre" ->
      Migrator.Pre_paging (int_of_string (String.sub s 3 (String.length s - 3)))
    | s -> failwith ("unknown strategy: " ^ s ^ " (use eager | cor | preN)")
  in
  let cluster = Kernel.create_cluster ~hosts:2 () in
  let ok = ref false in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let src = Task.create cluster.Kernel.c_kernels.(0) ~name:"job" () in
      let ready = Ivar.create () in
      ignore
        (Thread.spawn src ~name:"job.init" (fun () ->
             let addr = Syscalls.vm_allocate src ~size:(pages * page) ~anywhere:true () in
             for i = 0 to pages - 1 do
               ignore (Syscalls.write_bytes src ~addr:(addr + (i * page)) (Bytes.make 32 'd') ())
             done;
             Ivar.fill ready addr));
      ignore
        (Thread.spawn src ~name:"driver" (fun () ->
             let addr = Ivar.read ready in
             let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
             let t0 = Engine.now cluster.Kernel.c_engine in
             let mg = Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1) strategy in
             let setup_ms = (Engine.now cluster.Kernel.c_engine -. t0) /. 1e3 in
             let dst = mg.Migrator.mg_task in
             let n_touch = max 1 (int_of_float (float_of_int pages *. touched)) in
             let fin = Ivar.create () in
             ignore
               (Thread.spawn dst ~name:"job-migrated" (fun () ->
                    let t1 = Engine.now cluster.Kernel.c_engine in
                    for i = 0 to n_touch - 1 do
                      let p = i * pages / n_touch in
                      ignore
                        (Syscalls.read_bytes dst ~addr:(addr + (p * page)) ~len:8
                           ~policy:(Fault.Abort_after 60_000_000.0) ())
                    done;
                    Ivar.fill fin ((Engine.now cluster.Kernel.c_engine -. t1) /. 1e3)));
             let run_ms = Ivar.read fin in
             Printf.printf
               "%d pages, strategy %s, touched %.0f%%: setup %.2f ms, run %.2f ms, total %.2f ms, \
                %d pages shipped\n"
               pages
               (match strategy with
               | Migrator.Eager_copy -> "eager"
               | Migrator.Copy_on_reference -> "copy-on-reference"
               | Migrator.Pre_paging n -> Printf.sprintf "pre-paging(%d)" n)
               (touched *. 100.0) setup_ms run_ms (setup_ms +. run_ms)
               (Migrator.pages_transferred mgr);
             ok := true)));
  Engine.run cluster.Kernel.c_engine;
  if !ok then 0 else 1

(* ---- camelot ----------------------------------------------------------- *)

let run_camelot txns updates =
  let sys = Kernel.create_system () in
  let log_disk = Disk.create sys.Kernel.engine ~name:"log" ~blocks:4096 ~block_size:page () in
  let data_disk = Disk.create sys.Kernel.engine ~name:"data" ~blocks:4096 ~block_size:page () in
  let ok = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let cam = Mach_pagers.Camelot.start sys.Kernel.kernel ~log_disk ~data_disk ~format:true () in
      let client = Task.create sys.Kernel.kernel ~name:"txn" () in
      ignore
        (Thread.spawn client ~name:"txn.main" (fun () ->
             let module C = Mach_pagers.Camelot in
             let server = C.service_port cam in
             let base =
               match C.Client.map_segment client ~server "db" ~size:(256 * page) with
               | Ok b -> b
               | Error _ -> failwith "map failed"
             in
             let rng = Rng.create 1 in
             let t0 = Engine.now sys.Kernel.engine in
             for _ = 1 to txns do
               match C.Client.begin_txn client ~server with
               | Error _ -> failwith "begin failed"
               | Ok tid ->
                 for _ = 1 to updates do
                   let offset = 16 * Rng.int rng (256 * page / 16) in
                   ignore (C.Client.store client ~server tid ~segment:"db" ~base ~offset (Bytes.make 8 'u'))
                 done;
                 ignore (C.Client.commit client ~server tid)
             done;
             let dt = (Engine.now sys.Kernel.engine -. t0) /. 1e6 in
             Printf.printf
               "%d txns x %d updates: %.2f s simulated, %.1f txn/s, %d log forces, %d WAL \
                violations, %d data-disk ops\n"
               txns updates dt
               (float_of_int txns /. dt)
               (C.log_forces cam) (C.wal_violations cam) (Disk.ops data_disk);
             ok := true)));
  Engine.run sys.Kernel.engine;
  if !ok then 0 else 1

(* ---- failures ----------------------------------------------------------- *)

let run_failures timeout_ms =
  let timeout = float_of_int timeout_ms *. 1000.0 in
  let sys = Kernel.create_system () in
  let ok = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let mgr = Task.create sys.Kernel.kernel ~name:"silent-mgr" () in
      let silent =
        {
          Pager_runtime.default_policy with
          Pager_runtime.p_read =
            (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Pager_runtime.Defer);
        }
      in
      let rt, srv = Memory_object_server.serve mgr silent in
      let memory_object = Memory_object_server.create_memory_object srv () in
      ignore (Pager_runtime.register rt ~memory_object ());
      let app = Task.create sys.Kernel.kernel ~name:"app" () in
      ignore
        (Thread.spawn app ~name:"app.main" (fun () ->
             let addr =
               Syscalls.vm_allocate_with_pager app ~size:(2 * page) ~anywhere:true ~memory_object
                 ~offset:0 ()
             in
             let t0 = Engine.now sys.Kernel.engine in
             (match Syscalls.read_bytes app ~addr ~len:8 ~policy:(Fault.Abort_after timeout) () with
             | Error e ->
               Printf.printf "abort policy: fault aborted after %.0f ms (%s)\n"
                 ((Engine.now sys.Kernel.engine -. t0) /. 1e3)
                 (Format.asprintf "%a" Access.pp_error e)
             | Ok _ -> Printf.printf "abort policy: UNEXPECTED success\n");
             let t1 = Engine.now sys.Kernel.engine in
             (match
                Syscalls.read_bytes app ~addr:(addr + page) ~len:8
                  ~policy:(Fault.Zero_fill_after timeout) ()
              with
             | Ok b ->
               Printf.printf "zero-fill policy: got %s after %.0f ms, thread continues\n"
                 (if Bytes.for_all (fun c -> c = '\000') b then "zeroes" else "garbage")
                 ((Engine.now sys.Kernel.engine -. t1) /. 1e3)
             | Error _ -> Printf.printf "zero-fill policy: UNEXPECTED failure\n");
             ok := true)));
  Engine.run sys.Kernel.engine;
  if !ok then 0 else 1

(* ---- stat / trace ------------------------------------------------------- *)

(* The canned workload behind `machsim stat` and `machsim trace`: a
   fault storm touching all the observability surfaces — anonymous
   zero-fill, soft refaults after pmap eviction, and external-pager
   faults that ride IPC to a user-level manager. Runs with tracing on
   and returns the kernel for reduction. *)
let run_storm ~rounds =
  let sys = Kernel.create_system () in
  let kernel = sys.Kernel.kernel in
  Trace.set_enabled (Kernel.trace kernel) true;
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create kernel ~name:"storm" () in
      ignore
        (Thread.spawn task ~name:"storm.main" (fun () ->
             let addr = Syscalls.vm_allocate task ~size:(rounds * page) ~anywhere:true () in
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(addr + (i * page)) ~write:true ())
             done;
             (match Vm_map.pmap (Task.map task) with
             | Some pm ->
               for i = 0 to rounds - 1 do
                 Mach_hw.Pmap.remove pm ~vpn:((addr + (i * page)) / page)
               done
             | None -> ());
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(addr + (i * page)) ~write:false ())
             done;
             let mgr = Task.create kernel ~name:"file-mgr" () in
             let policy =
               {
                 Pager_runtime.default_policy with
                 Pager_runtime.p_read =
                   (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ ->
                     Pager_runtime.Data (Bytes.make page 'f'));
               }
             in
             let rt, srv = Memory_object_server.serve mgr policy in
             let memory_object = Memory_object_server.create_memory_object srv () in
             ignore (Pager_runtime.register rt ~memory_object ());
             let ext =
               Syscalls.vm_allocate_with_pager task ~size:(rounds * page) ~anywhere:true
                 ~memory_object ~offset:0 ()
             in
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(ext + (i * page)) ~write:false ())
             done)));
  Engine.run sys.Kernel.engine;
  kernel

let run_stat rounds as_json =
  let kernel = run_storm ~rounds in
  if as_json then print_string (Metrics.to_json (Metrics.snapshot (Kernel.metrics kernel)))
  else begin
    let t =
      Table.create ~title:"host metrics registry (vm_statistics superset)"
        ~columns:[ "metric"; "value" ]
    in
    List.iter
      (fun (k, v) ->
        Table.row t
          [ k; (if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v) ])
      (Metrics.snapshot (Kernel.metrics kernel));
    Table.print t
  end;
  0

let run_trace rounds filter span limit =
  let kernel = run_storm ~rounds in
  let tr = Kernel.trace kernel in
  let events =
    List.filter
      (fun ev ->
        (match filter with Some sub -> ev.Trace.ev_sub = sub | None -> true)
        && match span with Some id -> ev.Trace.ev_span = id | None -> true)
      (Trace.events tr)
  in
  let total = List.length events in
  let shown = match limit with Some n -> n | None -> total in
  List.iteri
    (fun i ev ->
      if i < shown then
        Printf.printf "%10.1f  cpu%d  span%-4d  %-6s %-5s %s\n" ev.Trace.ev_time
          ev.Trace.ev_cpu ev.Trace.ev_span ev.Trace.ev_sub
          (Trace.kind_to_string ev.Trace.ev_kind)
          ev.Trace.ev_label)
    events;
  if shown < total then Printf.printf "... (%d more events; raise --limit)\n" (total - shown);
  let opens, closes = Trace.balance tr in
  Printf.printf "\n%d events buffered (%d dropped by ring), %d spans opened / %d closed\n"
    (List.length (Trace.events tr))
    (Trace.dropped tr) opens closes;
  (* Per-fault latency percentiles, reduced from the vm fault spans. *)
  let lat = Mach_util.Stats.create () in
  List.iter
    (fun sp ->
      if sp.Trace.sp_sub = "vm" && sp.Trace.sp_label = "fault" then
        Mach_util.Stats.add lat (Trace.span_duration sp))
    (Trace.spans tr);
  if Mach_util.Stats.count lat > 0 then
    Printf.printf "fault latency (us): n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f\n"
      (Mach_util.Stats.count lat) (Mach_util.Stats.mean lat)
      (Mach_util.Stats.percentile lat 50.0)
      (Mach_util.Stats.percentile lat 90.0)
      (Mach_util.Stats.percentile lat 99.0)
      (Mach_util.Stats.max lat);
  0

(* ---- machines ---------------------------------------------------------- *)

let run_machines () =
  let t =
    Table.create ~title:"machine models (Section 7)"
      ~columns:[ "class"; "model"; "cpus"; "local us"; "remote us"; "net latency us" ]
  in
  List.iter
    (fun p ->
      Table.row t
        [
          Machine.class_to_string p.Machine.mp_class;
          p.Machine.model;
          string_of_int p.Machine.cpus;
          Printf.sprintf "%.2f" p.Machine.local_access_us;
          (match p.Machine.remote_access_us with
          | Some r -> Printf.sprintf "%.2f" r
          | None -> "-");
          Printf.sprintf "%.0f" p.Machine.net_latency_us;
        ])
    [ Machine.uniprocessor; Machine.vax_8800; Machine.multimax; Machine.butterfly; Machine.hypercube ];
  Table.print t;
  0

(* ---- cmdliner ---------------------------------------------------------- *)

open Cmdliner

let compile_cmd =
  let sources = Arg.(value & opt int 48 & info [ "sources" ] ~doc:"Number of source files.") in
  let builds = Arg.(value & opt int 3 & info [ "builds" ] ~doc:"Consecutive builds to run.") in
  let frames = Arg.(value & opt int 1024 & info [ "frames" ] ~doc:"Physical memory, in pages.") in
  let cache = Arg.(value & opt int 10 & info [ "cache-pct" ] ~doc:"UNIX buffer cache, % of memory.") in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compilation workload: Mach mapped files vs UNIX buffer cache (E4)")
    Term.(const run_compile $ sources $ builds $ frames $ cache)

let netmem_cmd =
  let pages = Arg.(value & opt int 32 & info [ "pages" ] ~doc:"Shared region size in pages.") in
  let ops = Arg.(value & opt int 400 & info [ "ops" ] ~doc:"Accesses per client.") in
  let wr = Arg.(value & opt float 0.1 & info [ "write-ratio" ] ~doc:"Fraction of writes.") in
  let hosts = Arg.(value & opt int 2 & info [ "hosts" ] ~doc:"Number of hosts (>= 2).") in
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"Probability an inter-host message is lost.")
  in
  let dup =
    Arg.(
      value & opt float 0.0 & info [ "dup" ] ~doc:"Probability an inter-host message is duplicated.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Fault-plan RNG seed.") in
  Cmd.v
    (Cmd.info "netmem" ~doc:"Consistent network shared memory workload (E6)")
    Term.(const run_netmem $ pages $ ops $ wr $ hosts $ drop $ dup $ seed)

let migrate_cmd =
  let pages = Arg.(value & opt int 128 & info [ "pages" ] ~doc:"Task address-space size in pages.") in
  let strategy =
    Arg.(value & opt string "cor" & info [ "strategy" ] ~doc:"eager | cor | preN (e.g. pre4).")
  in
  let touched = Arg.(value & opt float 0.5 & info [ "touched" ] ~doc:"Fraction of pages referenced.") in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Task migration strategies (E7)")
    Term.(const run_migrate $ pages $ strategy $ touched)

let machines_cmd =
  Cmd.v (Cmd.info "machines" ~doc:"Show the machine models") Term.(const run_machines $ const ())

let camelot_cmd =
  let txns = Arg.(value & opt int 50 & info [ "txns" ] ~doc:"Transactions to commit.") in
  let updates = Arg.(value & opt int 20 & info [ "updates" ] ~doc:"Updates per transaction.") in
  Cmd.v
    (Cmd.info "camelot" ~doc:"Recoverable-memory transaction workload (E8)")
    Term.(const run_camelot $ txns $ updates)

let failures_cmd =
  let timeout = Arg.(value & opt int 300 & info [ "timeout-ms" ] ~doc:"Fault timeout in ms.") in
  Cmd.v
    (Cmd.info "failures" ~doc:"Inject an unresponsive data manager and show the s6 policies")
    Term.(const run_failures $ timeout)

let stat_cmd =
  let rounds = Arg.(value & opt int 40 & info [ "rounds" ] ~doc:"Pages touched per fault phase.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry snapshot as JSON.") in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Run a canned fault storm and dump the host's unified metrics registry (every \
          subsystem.counter the vm, ipc and scheduler blocks export, plus each pager's stats)")
    Term.(const run_stat $ rounds $ json)

let trace_cmd =
  let rounds = Arg.(value & opt int 40 & info [ "rounds" ] ~doc:"Pages touched per fault phase.") in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~doc:"Only events of this subsystem (vm | ipc | sched | bench)."
          ~docv:"SUBSYSTEM")
  in
  let span =
    Arg.(value & opt (some int) None & info [ "span" ] ~doc:"Only events of this span id.")
  in
  let limit =
    Arg.(value & opt (some int) (Some 40) & info [ "limit" ] ~doc:"Max events to print.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a canned fault storm with the causal trace enabled, dump the event spine \
          (filterable by subsystem or span id) and reduce per-fault latency percentiles from \
          the fault spans")
    Term.(const run_trace $ rounds $ filter $ span $ limit)

let main =
  let doc = "scenario runner for the simulated Mach kernel" in
  Cmd.group (Cmd.info "machsim" ~doc)
    [
      compile_cmd; netmem_cmd; migrate_cmd; machines_cmd; camelot_cmd; failures_cmd; stat_cmd;
      trace_cmd;
    ]

let () = exit (Cmd.eval' main)
