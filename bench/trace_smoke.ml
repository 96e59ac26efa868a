(* @trace-smoke gate: drive a fault storm — anonymous zero-fill, soft
   refaults after pmap eviction, and external-pager faults — twice:

   - traced: the span ledger must balance (every fault opened exactly
     one span and closed it; nothing left open), the fault spans must
     equal the fault counter, and the causal id must have crossed into
     the IPC layer (send/recv points attributed to fault spans);

   - untraced: the buffer must stay empty AND the run must be
     simulated-time identical to the traced run — tracing charges no
     simulated time when on and compiles to a branch when off, so
     enabling it can never perturb an experiment's numbers. *)

open Mach
module Mos = Memory_object_server
module Rt = Pager_runtime

let page = 4096
let rounds = 40
let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok   %s\n" what
  else begin
    Printf.eprintf "FAIL %s\n" what;
    incr failures
  end

let run_storm ~traced =
  let sys = Kernel.create_system () in
  let kernel = sys.Kernel.kernel in
  Trace.set_enabled (Kernel.trace kernel) traced;
  let ok = ref false in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let task = Task.create kernel ~name:"storm" () in
      ignore
        (Thread.spawn task ~name:"storm.main" (fun () ->
             (* Zero-fill, then soft refaults of the same range. *)
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
             (* External-pager faults: each one rides IPC to a prompt
                user-level manager and back. *)
             let mgr = Task.create kernel ~name:"storm-mgr" () in
             let policy =
               {
                 Rt.default_policy with
                 Rt.p_read =
                   (fun _ _ ~request:_ ~page:_ ~npages:_ ~desired_access:_ ->
                     Rt.Data (Bytes.make page 's'));
               }
             in
             let rt, srv = Mos.serve mgr policy in
             let memory_object = Mos.create_memory_object srv () in
             ignore (Rt.register rt ~memory_object ());
             let ext =
               Syscalls.vm_allocate_with_pager task ~size:(rounds * page) ~anywhere:true
                 ~memory_object ~offset:0 ()
             in
             for i = 0 to rounds - 1 do
               ignore (Syscalls.touch task ~addr:(ext + (i * page)) ~write:false ())
             done;
             ok := true)));
  Engine.run sys.Kernel.engine;
  check (Printf.sprintf "storm completed (traced=%b)" traced) !ok;
  (Engine.now sys.Kernel.engine, Counters.get (Kernel.stats kernel) Vm_types.s_faults, Kernel.trace kernel)

let () =
  let t_on, faults_on, tr = run_storm ~traced:true in
  let opens, closes = Trace.balance tr in
  check "spans opened" (opens > 0);
  check (Printf.sprintf "spans balanced (%d opened, %d closed)" opens closes)
    (opens = closes);
  check "no unclosed spans" (Trace.unclosed tr = 0);
  let fault_spans =
    List.filter
      (fun sp -> sp.Trace.sp_sub = "vm" && sp.Trace.sp_label = "fault")
      (Trace.spans tr)
  in
  check
    (Printf.sprintf "one span per fault (%d spans, %d faults)" (List.length fault_spans)
       faults_on)
    (List.length fault_spans = faults_on && faults_on > 0);
  let ipc_under_fault =
    List.exists
      (fun ev -> ev.Trace.ev_sub = "ipc" && ev.Trace.ev_span >= 0)
      (Trace.events tr)
  in
  check "fault span crossed into the IPC layer" ipc_under_fault;
  let t_off, faults_off, tr_off = run_storm ~traced:false in
  check "disabled trace records nothing" (Trace.events tr_off = []);
  check
    (Printf.sprintf "identical simulated time traced vs untraced (%.1f vs %.1f us)" t_on
       t_off)
    (t_on = t_off);
  check "identical fault counts traced vs untraced" (faults_on = faults_off);
  if !failures > 0 then exit 1;
  print_endline "trace smoke: balanced spans, zero overhead when disabled"
