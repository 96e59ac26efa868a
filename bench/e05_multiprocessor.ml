(* E5 — §7: multiprocessor scaling through the processor scheduler.

   The paper's §7 taxonomy (UMA / NUMA / NORMA) is reproduced as a
   calibration table, and then exercised: three parallel workloads —
   a zero-fill fault storm, IPC ping-pong pairs, and the §9 compile
   workload run as parallel jobs — are swept over 1..16 processors of
   each machine class. Every compute burst (fault service, message
   copies, compiler CPU) contends for the host's per-CPU run queues,
   so the sweep measures real speedup curves plus the scheduler's own
   counters: context switches, quantum preemptions, migrations, work
   steals, run-queue depth, and the handoff hit rate of the RPC fast
   path. A final A/B run measures what handoff scheduling saves per
   RPC by re-running the same ping-pong with donation disabled, both
   with one pair and with four pairs saturating two CPUs. *)

open Mach
open Common
module Compile_sim = Mach_workloads.Compile_sim
module Minimal_fs = Mach_pagers.Minimal_fs
module Sched = Mach_sim.Sched

let page = 4096
let machines =
  [ ("multimax", Machine.multimax); ("butterfly", Machine.butterfly); ("hypercube", Machine.hypercube) ]

let with_cpus p n = { p with Machine.cpus = n }

(* All three classes have >= 16 CPUs; local-work scaling beyond that is
   identical, so the sweep stops there. *)
let cpu_sweep = [ 1; 2; 4; 8; 16 ]

(* --- measurement plumbing ---------------------------------------------- *)

type point = {
  pt_cpus : int;
  pt_elapsed : float;
  pt_util : float;  (** busy / (cpus * elapsed) over the measured window *)
  pt_sched : (string * int) list;  (** Sched counter deltas *)
  pt_handoffs : int;  (** IPC receives that arrived via handoff *)
}

let counter pt key = try List.assoc key pt.pt_sched with Not_found -> 0

type mark = {
  m_t : float;
  m_busy : float;
  m_sched : (string * int) list;
  m_handoffs : int;
}

let mark (sys : Kernel.system) =
  let kctx = Kernel.kctx sys.Kernel.kernel in
  {
    m_t = Engine.now sys.Kernel.engine;
    m_busy = Sched.busy_us kctx.Kctx.sched;
    m_sched = Counters.to_list (Sched.stats kctx.Kctx.sched);
    m_handoffs = Counters.value kctx.Kctx.node.Transport.node_stats "handoffs";
  }

let point (sys : Kernel.system) m0 =
  let m1 = mark sys in
  let cpus = Sched.cpu_count (Kernel.kctx sys.Kernel.kernel).Kctx.sched in
  let elapsed = m1.m_t -. m0.m_t in
  {
    pt_cpus = cpus;
    pt_elapsed = elapsed;
    pt_util =
      (if elapsed > 0.0 then (m1.m_busy -. m0.m_busy) /. (float_of_int cpus *. elapsed)
       else 0.0);
    pt_sched =
      List.map
        (fun (k, v) ->
          (* peak depth is a high-water mark, not a counter: report the
             absolute value rather than a meaningless difference *)
          if k = "queue_depth_peak" then (k, v) else (k, v - List.assoc k m0.m_sched))
        m1.m_sched;
    pt_handoffs = m1.m_handoffs - m0.m_handoffs;
  }

let speedup base pt = base.pt_elapsed /. pt.pt_elapsed

(* Processor time the run's context switches were charged. *)
let switch_us params pt = float_of_int (counter pt "switches") *. params.Machine.context_switch_us

(* Elapsed time less the run's switch charges spread over its CPUs:
   the time the work itself took, on a run that kept every CPU busy. *)
let net_elapsed params pt = pt.pt_elapsed -. (switch_us params pt /. float_of_int pt.pt_cpus)

(* Speedup of the work alone, which W workers cannot push past W. *)
let net_speedup params base pt = net_elapsed params base /. net_elapsed params pt
let pct f = Printf.sprintf "%.0f%%" (100.0 *. f)
let ms v = Printf.sprintf "%.1f" (v /. 1000.0)

let avg_queue_depth pt =
  let enq = counter pt "enqueues" in
  if enq = 0 then 0.0 else fi (counter pt "queue_depth_sum") /. fi enq

(* --- workload 1: parallel zero-fill fault storm ------------------------- *)

(* Each worker touches its own anonymous region, so every page access is
   a zero-fill fault serviced on the faulting thread: syscall entry,
   fault base cost, pmap work and the data copy all run as scheduler
   bursts and contend for CPUs. *)
let fault_storm params ~workers ~pages_per_worker =
  let config = { Kernel.default_config with Kernel.params = params; Kernel.phys_frames = 4096 } in
  run_system ~config (fun sys task ->
      let m0 = mark sys in
      let dones =
        List.init workers (fun i ->
            let d = Ivar.create () in
            ignore
              (Thread.spawn task ~name:(Printf.sprintf "storm-%d" i) (fun () ->
                   let addr =
                     Syscalls.vm_allocate task ~size:(pages_per_worker * page) ~anywhere:true ()
                   in
                   for p = 0 to pages_per_worker - 1 do
                     ignore
                       (ok_exn "touch"
                          (Syscalls.touch task ~addr:(addr + (p * page)) ~write:true ()))
                   done;
                   Ivar.fill d ()));
            d)
      in
      List.iter Ivar.read dones;
      point sys m0)

(* --- workload 2: IPC ping-pong pairs ------------------------------------ *)

(* Each pair runs small inline RPCs: the blocked-receiver fast path plus
   processor handoff. [handoff:false] is the ablation arm: the same
   messages flow, but every receive pays the context-switch charge and
   queues for a processor. *)
let ping_pong ?(handoff = true) params ~pairs ~rpcs =
  let config = { Kernel.default_config with Kernel.params = { params with Machine.handoff } } in
  run_system ~config (fun sys task ->
      let m0 = mark sys in
      let dones =
        List.init pairs (fun i ->
            let d = Ivar.create () in
            let svc = Syscalls.port_allocate task ~backlog:8 () in
            let svc_port = Port_space.lookup_exn (Task.space task) svc in
            ignore
              (Thread.spawn task ~name:(Printf.sprintf "pong-%d" i) (fun () ->
                   for _ = 1 to rpcs do
                     match Syscalls.msg_receive task ~from:(`Port svc) () with
                     | Ok msg -> (
                       match msg.Message.header.Message.reply with
                       | Some rp ->
                         ignore
                           (Syscalls.msg_send task
                              (Message.make ~dest:rp [ Message.Data (Bytes.create 8) ]))
                       | None -> failwith "E5 rpc without reply port")
                     | Error _ -> failwith "E5 pong receive failed"
                   done));
            ignore
              (Thread.spawn task ~name:(Printf.sprintf "ping-%d" i) (fun () ->
                   let reply = Syscalls.port_allocate task ~backlog:1 () in
                   let reply_port = Port_space.lookup_exn (Task.space task) reply in
                   for _ = 1 to rpcs do
                     ignore
                       (ok_exn "rpc"
                          (Syscalls.msg_rpc task
                             (Message.make ~dest:svc_port ~reply:reply_port
                                [ Message.Data (Bytes.create 8) ])
                             ()))
                   done;
                   Ivar.fill d ()));
            d)
      in
      List.iter Ivar.read dones;
      (point sys m0, 2 * pairs * rpcs))

(* Handoff A/B: the same ping-pong on a 2-CPU MultiMax with and without
   processor donation. One pair leaves a CPU idle; four pairs keep both
   busy, so only a donation taken at the end of the send burst (before
   the run queue claims the processor) can land. *)
let ab_machine = with_cpus Machine.multimax 2
let sat_pairs = 4

let handoff_ab ~pairs ~rpcs =
  let on, _ = ping_pong ~handoff:true ab_machine ~pairs ~rpcs in
  let off, _ = ping_pong ~handoff:false ab_machine ~pairs ~rpcs in
  (on, off)

(* Elapsed time per completed RPC, over all pairs. *)
let per_rpc ~pairs ~rpcs pt = pt.pt_elapsed /. float_of_int (pairs * rpcs)

let claim_ratio pt =
  if pt.pt_handoffs = 0 then 0.0
  else float_of_int (counter pt "handoff_claims") /. float_of_int pt.pt_handoffs

(* --- workload 3: parallel compile jobs (§9 workload) -------------------- *)

(* One shared project served by the §4.1 filesystem server; each job
   compiles its own slice of the sources while all jobs re-read the
   same shared headers through the unified page cache. Compiler CPU
   bursts are long (hundreds of ms), so this is where quantum
   preemption shows up once jobs > cpus. *)
let compile_scale params ~jobs ~sources_per_job =
  let config = { Kernel.default_config with Kernel.params = params; Kernel.phys_frames = 2048 } in
  run_system ~config (fun sys task ->
      let disk =
        Disk.create sys.Kernel.engine ~name:"e5-disk" ~blocks:8192 ~block_size:page ()
      in
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let proj =
        Compile_sim.generate (Rng.create 0x4D503535) ~sources:(jobs * sources_per_job)
          ~source_bytes:(12 * 1024) ~headers:16 ~header_bytes:(16 * 1024) ~headers_per_source:6
      in
      let ops = Compile_sim.mach_ops task ~server ~disk in
      Compile_sim.populate ops (Rng.create 7) proj;
      let slices =
        List.init jobs (fun i ->
            {
              proj with
              Compile_sim.sources =
                List.filteri (fun idx _ -> idx / sources_per_job = i) proj.Compile_sim.sources;
            })
      in
      let m0 = mark sys in
      let dones =
        List.mapi
          (fun i slice ->
            let d = Ivar.create () in
            ignore
              (Thread.spawn task ~name:(Printf.sprintf "cc-%d" i) (fun () ->
                   Compile_sim.build ops slice;
                   Ivar.fill d ()));
            d)
          slices
      in
      List.iter Ivar.read dones;
      point sys m0)

(* --- the §7 taxonomy calibration table ---------------------------------- *)

let msg_exchange_us params =
  match params.Machine.mp_class with
  | Machine.Norma -> params.Machine.net_latency_us +. (8.0 *. params.Machine.net_us_per_byte)
  | Machine.Uma | Machine.Numa -> (
    match params.Machine.remote_access_us with Some r -> r | None -> assert false)

let taxonomy_table () =
  let t =
    Table.create ~title:"E5: multiprocessor classes (Section 7)"
      ~columns:
        [ "class"; "machine"; "cpus"; "local word us"; "remote word us"; "remote/local";
          "cross-node exchange us" ]
  in
  List.iter
    (fun p ->
      let local = Machine.access_us p ~remote:false ~words:1 in
      let remote =
        match p.Machine.remote_access_us with
        | Some _ -> Some (Machine.access_us p ~remote:true ~words:1)
        | None -> None
      in
      Table.row t
        [
          Machine.class_to_string p.Machine.mp_class;
          p.Machine.model;
          string_of_int p.Machine.cpus;
          Printf.sprintf "%.2f" local;
          (match remote with Some r -> Printf.sprintf "%.2f" r | None -> "no remote access");
          (match remote with Some r -> Printf.sprintf "%.0fx" (r /. local) | None -> "-");
          Printf.sprintf "%.0f" (msg_exchange_us p);
        ])
    (List.map snd machines);
  t

(* --- the experiment -------------------------------------------------------- *)

(* [fields] of [pt] under [prefix] ("workload_machine_cpus_"). *)
let point_pairs prefix fields pt =
  List.map
    (fun f ->
      ( prefix ^ f,
        match f with
        | "elapsed_us" -> pt.pt_elapsed
        | "util" -> pt.pt_util
        | "handoffs" -> fi pt.pt_handoffs
        | "avg_queue" -> avg_queue_depth pt
        | k -> fi (counter pt k) ))
    fields

let body scale =
  let storm_workers, storm_pages, pp_pairs, pp_rpcs, cc_jobs, cc_sources, ab_rpcs =
    match scale with Full -> (8, 48, 4, 150, 6, 2, 400) | Small -> (2, 4, 1, 4, 2, 1, 8)
  in
  let sweep f = List.map (fun n -> (n, f n)) cpu_sweep in
  let per_machine =
    List.map
      (fun (key, machine) ->
        let on n = with_cpus machine n in
        ( key,
          machine,
          sweep (fun n -> fault_storm (on n) ~workers:storm_workers ~pages_per_worker:storm_pages),
          sweep (fun n -> ping_pong (on n) ~pairs:pp_pairs ~rpcs:pp_rpcs),
          sweep (fun n -> compile_scale (on n) ~jobs:cc_jobs ~sources_per_job:cc_sources) ))
      machines
  in
  let points =
    List.concat_map
      (fun (key, machine, storm, pp, cc) ->
        let at w n = Printf.sprintf "%s_%s_%d_" w key n in
        let storm1 = List.assoc 1 storm and pp1, _ = List.assoc 1 pp and cc1 = List.assoc 1 cc in
        List.concat_map
          (fun (n, pt) ->
            [
              (at "storm" n ^ "speedup", speedup storm1 pt);
              (at "storm" n ^ "net_speedup", net_speedup machine storm1 pt);
              (at "storm" n ^ "switch_ms", switch_us machine pt /. 1000.0);
            ]
            @ point_pairs (at "storm" n)
                [ "elapsed_us"; "util"; "switches"; "preemptions"; "migrations"; "steals";
                  "queue_depth_peak"; "avg_queue" ]
                pt)
          storm
        @ List.concat_map
            (fun (n, (pt, receives)) ->
              [
                (at "pp" n ^ "speedup", speedup pp1 pt);
                (at "pp" n ^ "rpc_us", per_rpc ~pairs:pp_pairs ~rpcs:pp_rpcs pt);
                (at "pp" n ^ "handoff_rate", fi pt.pt_handoffs /. fi receives);
              ]
              @ point_pairs (at "pp" n) [ "elapsed_us"; "switches"; "steals" ] pt)
            pp
        @ List.concat_map
            (fun (n, pt) ->
              (at "cc" n ^ "speedup", speedup cc1 pt)
              :: point_pairs (at "cc" n)
                   [ "elapsed_us"; "util"; "switches"; "preemptions"; "migrations" ]
                   pt)
            cc)
      per_machine
  in
  (* Handoff A/B: the delta between the arms is the per-RPC price of the
     run-queue round trip the handoff path skips. *)
  let ab =
    List.map
      (fun pairs ->
        let rpcs = ab_rpcs / pairs in
        let on, off = handoff_ab ~pairs ~rpcs in
        (pairs, per_rpc ~pairs ~rpcs, on, off))
      [ 1; sat_pairs ]
  in
  let ab_points =
    List.concat_map
      (fun (pairs, per_rpc, on, off) ->
        List.concat_map
          (fun (arm, pt) ->
            let prefix = Printf.sprintf "ab_%d_%s_" pairs arm in
            (prefix ^ "rpc_us", per_rpc pt)
            :: point_pairs prefix [ "elapsed_us"; "handoffs"; "handoff_claims"; "switches" ] pt)
          [ ("handoff", on); ("queued", off) ])
      ab
  in
  (* The gated headline: the MultiMax sweep and the two A/B loads. *)
  let _, _, storm, pp, _ = List.hd per_machine in
  let storm1 = List.assoc 1 storm and _, storm_max = List.nth storm (List.length storm - 1) in
  let pp_pt, pp_recv = List.assoc 4 pp in
  let _, one_rpc, on, off = List.hd ab and _, sat_rpc, sat_on, sat_off = List.nth ab 1 in
  [
    ("fault_storm_speedup_4", speedup storm1 (List.assoc 4 storm));
    ("fault_storm_speedup_max", speedup storm1 storm_max);
    ("fault_storm_switch_ms_1cpu", switch_us Machine.multimax storm1 /. 1000.0);
    ("fault_storm_speedup_net_max", net_speedup Machine.multimax storm1 storm_max);
    ("pingpong_handoff_rate", fi pp_pt.pt_handoffs /. fi pp_recv);
    ("handoff_saving_us_per_rpc", one_rpc off -. one_rpc on);
    ("saturated_handoff_claim_ratio", claim_ratio sat_on);
    ("saturated_handoff_saving_us_per_rpc", sat_rpc sat_off -. sat_rpc sat_on);
  ]
  @ points @ ab_points

let tables pairs =
  let t_storm =
    Table.create ~title:"E5a: zero-fill fault storm (8 workers x 48 pages)"
      ~columns:
        [ "machine"; "cpus"; "elapsed ms"; "speedup"; "net speedup"; "util"; "switches";
          "switch ms"; "preempt"; "migr"; "steals"; "peak q"; "avg q" ]
  in
  let t_pp =
    Table.create ~title:"E5b: IPC ping-pong (4 pairs x 150 RPCs, 8-byte payload)"
      ~columns:
        [ "machine"; "cpus"; "elapsed ms"; "speedup"; "rpc us"; "handoff rate"; "switches";
          "steals" ]
  in
  let t_cc =
    Table.create ~title:"E5c: parallel compile jobs (6 jobs x 2 sources, shared headers)"
      ~columns:
        [ "machine"; "cpus"; "elapsed ms"; "speedup"; "util"; "switches"; "preempt"; "migr" ]
  in
  List.iter
    (fun (key, machine) ->
      List.iter
        (fun n ->
          let at w f = get pairs (Printf.sprintf "%s_%s_%d_%s" w key n f) in
          let x w f = Printf.sprintf "%.2fx" (at w f) and one w f = Printf.sprintf "%.1f" (at w f) in
          let lead w =
            [ machine.Machine.model; string_of_int n; ms (at w "elapsed_us"); x w "speedup" ]
          in
          let cells w = List.map (fun f -> us0 (at w f)) in
          Table.row t_storm
            (lead "storm"
            @ [ x "storm" "net_speedup"; pct (at "storm" "util") ]
            @ cells "storm" [ "switches" ]
            @ [ one "storm" "switch_ms" ]
            @ cells "storm" [ "preemptions"; "migrations"; "steals"; "queue_depth_peak" ]
            @ [ one "storm" "avg_queue" ]);
          Table.row t_pp
            (lead "pp"
            @ [ one "pp" "rpc_us"; pct (at "pp" "handoff_rate") ]
            @ cells "pp" [ "switches"; "steals" ]);
          Table.row t_cc
            (lead "cc"
            @ (pct (at "cc" "util") :: cells "cc" [ "switches"; "preemptions"; "migrations" ])))
        cpu_sweep)
    machines;
  let t_ab =
    Table.create
      ~title:"E5d: handoff vs run-queue RPC (400 RPCs per load, 2 CPUs, MultiMax)"
      ~columns:
        [ "load"; "arm"; "elapsed ms"; "per-RPC us"; "handoffs"; "claims"; "switches charged" ]
  in
  List.iter
    (fun n ->
      let load = Printf.sprintf "%d pair%s" n (if n = 1 then "" else "s") in
      let at arm f = get pairs (Printf.sprintf "ab_%d_%s_%s" n arm f) in
      let arm name key =
        Table.row t_ab
          (load :: name :: ms (at key "elapsed_us") :: us (at key "rpc_us")
          :: List.map (fun f -> us0 (at key f)) [ "handoffs"; "handoff_claims"; "switches" ])
      in
      arm "handoff (donated CPU)" "handoff";
      arm "run queue (donation off)" "queued";
      Table.row t_ab
        [ load; "saving per RPC"; "-"; us (at "queued" "rpc_us" -. at "handoff" "rpc_us"); "-";
          "-"; "-" ])
    [ 1; sat_pairs ];
  [ taxonomy_table (); t_storm; t_pp; t_cc; t_ab ]

let experiment =
  {
    id = "E5";
    title = "Multiprocessor scheduling";
    paper_claim =
      "Mach runs on UMA, NUMA and NORMA machines (Section 7): compute-bound work scales with \
       added processors through per-CPU run queues, and message/scheduling integration lets an \
       RPC hand the sender's processor straight to the receiver instead of a run-queue round \
       trip.";
    body;
    tables;
  }
