(* E10 — §5.5: cost of each fault-handler path: zero-fill, soft
   (resident page, invalid translation), copy-on-write, external pager,
   and pagein from the default pager after a pageout round trip.

   The per-fault numbers are TRACE REDUCTIONS: every fault opens a span
   on the kernel's trace spine and closes it with its resolution kind,
   so this experiment enables tracing, drives each phase, and derives
   the per-path cost as the mean duration of the fault spans that
   started inside that phase's window — the stopwatch and the causal
   record are the same data. *)

open Mach
open Common
module Mos = Memory_object_server
module Rt = Pager_runtime

let page = 4096

(* Each phase's key and its row label. *)
let phases =
  [
    ("zf", "zero-fill fault (anonymous memory)");
    ("soft", "soft fault (resident page, pmap refill)");
    ("cow", "copy-on-write fault (page copy + shadow)");
    ("ext", "external pager fault (IPC round trip to manager)");
    ("wb", "refault during clean (absorbed by laundry queue)");
    ("stride", "external pager fault, a cluster window apart");
  ]

let body scale =
  let rounds = match scale with Full -> 50 | Small -> 5 in
  run_system (fun sys task ->
      let engine = sys.Kernel.engine in
      let kernel = sys.Kernel.kernel in
      let tr = Kernel.trace kernel in
      Trace.set_enabled tr true;
      (* Each phase records its sim-time window; the trace reduction
         below attributes fault spans to phases by start time. *)
      let windows = ref [] in
      let phase name f =
        let t0 = Engine.now engine in
        let r = f () in
        windows := (name, t0, Engine.now engine) :: !windows;
        r
      in
      (* Zero-fill faults: first touch of fresh anonymous pages. *)
      let zf_addr = Syscalls.vm_allocate task ~size:(rounds * page) ~anywhere:true () in
      phase "zf" (fun () ->
          for i = 0 to rounds - 1 do
            ignore (ok_exn "zf" (Syscalls.touch task ~addr:(zf_addr + (i * page)) ~write:true ()))
          done);
      (* Soft faults: pages resident in the object but the hardware
         translations removed (e.g. after pmap eviction). *)
      (match Vm_map.pmap (Task.map task) with
      | Some pm ->
        for i = 0 to rounds - 1 do
          Mach_hw.Pmap.remove pm ~vpn:((zf_addr + (i * page)) / page)
        done
      | None -> ());
      phase "soft" (fun () ->
          for i = 0 to rounds - 1 do
            ignore (ok_exn "soft" (Syscalls.touch task ~addr:(zf_addr + (i * page)) ~write:false ()))
          done);
      (* COW faults: fork, then the child writes. *)
      let child = Task.create kernel ~parent:task ~name:"cow-child" () in
      phase "cow" (fun () ->
          let cow_done = Ivar.create () in
          ignore
            (Thread.spawn child ~name:"cow-child.main" (fun () ->
                 for i = 0 to rounds - 1 do
                   ignore
                     (ok_exn "cow" (Syscalls.touch child ~addr:(zf_addr + (i * page)) ~write:true ()))
                 done;
                 Ivar.fill cow_done ()));
          Ivar.read cow_done);
      (* External pager faults: a prompt user-level manager — a
         one-line runtime policy serving constant pages. *)
      let mgr_task = Task.create kernel ~name:"prompt-mgr" () in
      let prompt_policy =
        {
          Rt.default_policy with
          Rt.p_read =
            (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Rt.Data (Bytes.make page 'e'));
        }
      in
      let prompt_rt, srv = Mos.serve mgr_task prompt_policy in
      let memory_object = Mos.create_memory_object srv () in
      ignore (Rt.register prompt_rt ~memory_object ());
      let ext_addr =
        Syscalls.vm_allocate_with_pager task ~size:(rounds * page) ~anywhere:true ~memory_object
          ~offset:0 ()
      in
      phase "ext" (fun () ->
          for i = 0 to rounds - 1 do
            ignore (ok_exn "ext" (Syscalls.touch task ~addr:(ext_addr + (i * page)) ~write:false ()))
          done);
      (* Writeback pipeline: dirty a range behind a manager that delays
         its releases, have the manager ask for a clean, and refault
         mid-clean. The laundry queue absorbs the faulter (clean_hits);
         the old pipeline would have detached the pages and re-requested
         them from the manager. *)
      let wb_mgr = Task.create kernel ~name:"laundry-mgr" () in
      let wb_request = Ivar.create () in
      let wb_policy =
        {
          Rt.default_policy with
          Rt.p_init = (fun _ _ ~request -> Ivar.fill wb_request request);
          Rt.p_read =
            (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ -> Rt.Data (Bytes.make page 'w'));
          Rt.p_write =
            (fun _ _ ~offset:_ ~data:_ ->
              (* Sit on the data long enough for refaults to land while
                 the run's data_write is outstanding. *)
              Engine.sleep 3000.0);
        }
      in
      let wb_rt, wb_srv = Mos.serve wb_mgr wb_policy in
      let wb_object = Mos.create_memory_object wb_srv () in
      ignore (Rt.register wb_rt ~memory_object:wb_object ());
      let wb_addr =
        Syscalls.vm_allocate_with_pager task ~size:(rounds * page) ~anywhere:true
          ~memory_object:wb_object ~offset:0 ()
      in
      for i = 0 to rounds - 1 do
        ignore (ok_exn "wb-dirty" (Syscalls.touch task ~addr:(wb_addr + (i * page)) ~write:true ()))
      done;
      let wb_req = Ivar.read wb_request in
      Rt.clean_request wb_rt ~request:wb_req ~offset:0 ~length:(rounds * page);
      (* Let the kernel launder the runs, then refault mid-clean. *)
      Engine.sleep 500.0;
      phase "wb" (fun () ->
          for i = 0 to rounds - 1 do
            ignore
              (ok_exn "wb-refault" (Syscalls.touch task ~addr:(wb_addr + (i * page)) ~write:true ()))
          done);
      (* Strided external pager faults: every fault still goes to the
         manager, because each one lands a cluster window past the
         last, beyond the pages the previous request pulled in. The
         dirtying writes above cluster like reads, so this arm is what
         keeps one pager round trip per round. *)
      let stride = Kctx.cluster_pages in
      let stride_object = Mos.create_memory_object srv () in
      ignore (Rt.register prompt_rt ~memory_object:stride_object ());
      let stride_addr =
        Syscalls.vm_allocate_with_pager task ~size:(rounds * stride * page) ~anywhere:true
          ~memory_object:stride_object ~offset:0 ()
      in
      phase "stride" (fun () ->
          for i = 0 to rounds - 1 do
            ignore
              (ok_exn "stride"
                 (Syscalls.touch task ~addr:(stride_addr + (i * stride * page)) ~write:false ()))
          done);
      (* ---- trace reduction ------------------------------------------ *)
      let fault_spans =
        List.filter
          (fun sp -> sp.Trace.sp_sub = "vm" && sp.Trace.sp_label = "fault")
          (Trace.spans tr)
      in
      let phase_mean name =
        let _, t0, t1 =
          List.find (fun (n, _, _) -> n = name) !windows
        in
        let ds =
          List.filter_map
            (fun sp ->
              if sp.Trace.sp_start >= t0 && sp.Trace.sp_start < t1 then
                Some (sp.Trace.sp_end -. sp.Trace.sp_start)
              else None)
            fault_spans
        in
        match ds with
        | [] -> 0.0
        | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)
      in
      (* Resolution mix: the close label of every fault span says which
         slow-path step (if any) dominated its resolution. *)
      let mix = Hashtbl.create 8 in
      List.iter
        (fun sp ->
          let k = sp.Trace.sp_resolution in
          Hashtbl.replace mix k (1 + Option.value ~default:0 (Hashtbl.find_opt mix k)))
        fault_spans;
      let mix =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) mix []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let opens, closes = Trace.balance tr in
      List.map (fun (key, _) -> (key ^ "_us", phase_mean key)) phases
      @ List.map (fun (k, v) -> ("via_" ^ k, fi v)) mix
      @ [ ("spans_opened", fi opens); ("spans_closed", fi closes) ])

(* Fault-pipeline counters: how the handler actually resolved the
   workload's faults (fast vs slow path, hint behaviour, clustered pager
   traffic, burst mappings, and the writeback laundry). *)
let pipeline_counters =
  [
    "faults"; "fast_faults"; "hits"; "hint_hits"; "hint_misses"; "burst_entered"; "slow_busy";
    "slow_lock"; "slow_pager"; "slow_error"; "data_requests"; "cluster_pages"; "pageins";
    "pageouts"; "data_writes"; "laundered"; "clean_hits"; "cow_steals"; "cow_batched";
  ]

let tables pairs =
  let t =
    Table.create ~title:"E10: fault-path cost breakdown (trace spans, Section 5.5)"
      ~columns:[ "fault type"; "simulated us per fault (mean span)" ]
  in
  List.iter (fun (key, label) -> Table.row t [ label; us (get pairs (key ^ "_us")) ]) phases;
  let m =
    Table.create
      ~title:
        (Printf.sprintf "E10: fault-span resolution mix (%d spans opened, %d closed)"
           (geti pairs "spans_opened") (geti pairs "spans_closed"))
      ~columns:[ "resolved via"; "spans" ]
  in
  List.iter (fun (k, v) -> Table.row m [ k; us0 v ]) (with_prefix pairs "via_");
  let c =
    Table.create
      ~title:
        "E10: fault pipeline counters (fast/slow split, lookup hints, cluster-in)"
      ~columns:[ "counter"; "count" ]
  in
  List.iter
    (fun (k, v) -> if List.mem k pipeline_counters then Table.row c [ k; us0 v ])
    (with_prefix pairs "reg.vm.");
  (* The uniform per-pager stats block for the managers this experiment
     booted — requests, pages served, writes — through the runtime. *)
  [ t; m; c; pager_table ~title:"E10: per-pager runtime stats" pairs ]

let experiment =
  {
    id = "E10";
    title = "Fault-path breakdown";
    paper_claim =
      "The fault handler resolves validity/protection, page lookup, copy-on-write and hardware \
       validation; only the machine-dependent validation differs per machine. External-pager \
       faults add a message round trip to the data manager (Section 5.5).";
    body;
    tables;
  }
