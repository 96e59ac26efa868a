(* E13 — the thesis itself (§7): "a programmer has the option of
   choosing to use either shared memory or message-based communication
   ... depending on the kind of multiprocessor or network available".

   A producer/consumer exchanges items two ways on two machines:
   - tightly coupled (UMA MultiMax, one host): messages move bytes by
     copying; shared memory (inherited read/write region) moves them by
     cache access — no per-item kernel overhead;
   - loosely coupled (NORMA HyperCube, two hosts): messages ride the
     network natively; "shared memory" is the §4.2 coherence protocol,
     whose ownership ping-pong pays invalidation round trips per item.

   Each mode's elapsed time is derived from a "bench" span on the trace
   spine ([Common.spanned]), so the table's numbers are trace
   reductions and every fault/IPC event of a phase is causally linked
   to the phase that caused it. *)

open Mach
open Common
module Netmem = Mach_pagers.Netmem

let page = 4096

(* --- one host: messages vs inherited shared memory ----------------------- *)

let uma_messages ~items ~item_size =
  let config = { Kernel.default_config with Kernel.params = Machine.multimax } in
  run_system ~config (fun sys task ->
      let consumer = Task.create sys.Kernel.kernel ~name:"consumer" () in
      let svc = Syscalls.port_allocate consumer ~backlog:8 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space consumer) svc in
      let done_ = Ivar.create () in
      ignore
        (Thread.spawn consumer ~name:"consumer.main" (fun () ->
             for _ = 1 to items do
               ignore (Syscalls.msg_receive consumer ~from:(`Port svc) ())
             done;
             Ivar.fill done_ ()));
      let (), elapsed =
        spanned sys.Kernel.kernel "uma_messages" (fun () ->
            for _ = 1 to items do
              ignore
                (Syscalls.msg_send task
                   (Message.make ~dest:svc_port [ Message.Data (Bytes.create item_size) ]))
            done;
            Ivar.read done_)
      in
      (elapsed /. float_of_int items, ipc_counters [ sys.Kernel.kernel ]))

let uma_shared ~items ~item_size =
  let config = { Kernel.default_config with Kernel.params = Machine.multimax } in
  run_system ~config (fun sys parent ->
      (* A read/write-shared region between two children (§3.3
         inheritance). *)
      let buf = Syscalls.vm_allocate parent ~size:(2 * page + item_size) ~anywhere:true () in
      ignore (ok_exn "seed" (Syscalls.write_bytes parent ~addr:buf (Bytes.make 1 '\000') ()));
      Syscalls.vm_inherit parent ~addr:buf ~size:(2 * page + item_size) Vm_types.Inherit_share;
      let producer = Task.create sys.Kernel.kernel ~parent ~name:"producer" () in
      let consumer = Task.create sys.Kernel.kernel ~parent ~name:"consumer" () in
      let full = Mach_sim.Semaphore.create 0 in
      let empty = Mach_sim.Semaphore.create 1 in
      let done_ = Ivar.create () in
      ignore
        (Thread.spawn consumer ~name:"consumer.main" (fun () ->
             for _ = 1 to items do
               Mach_sim.Semaphore.acquire full;
               ignore (Syscalls.read_bytes consumer ~addr:buf ~len:item_size ());
               Mach_sim.Semaphore.release empty
             done;
             Ivar.fill done_ ()));
      let payload = Bytes.create item_size in
      let fin = Ivar.create () in
      ignore
        (Thread.spawn producer ~name:"producer.main" (fun () ->
             let (), elapsed =
               spanned sys.Kernel.kernel "uma_shared" (fun () ->
                   for _ = 1 to items do
                     Mach_sim.Semaphore.acquire empty;
                     ignore (ok_exn "produce" (Syscalls.write_bytes producer ~addr:buf payload ()));
                     Mach_sim.Semaphore.release full
                   done;
                   Ivar.read done_)
             in
             Ivar.fill fin (elapsed /. float_of_int items)));
      Ivar.read fin)

(* --- two hosts: messages vs coherent shared memory ----------------------- *)

let norma_config =
  { Kernel.default_config with Kernel.params = Machine.hypercube }

let norma_messages ~items ~item_size =
  let cluster = Kernel.create_cluster ~hosts:2 ~config:norma_config () in
  let out = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let producer = Task.create cluster.Kernel.c_kernels.(0) ~name:"producer" () in
      let consumer = Task.create cluster.Kernel.c_kernels.(1) ~name:"consumer" () in
      let svc = Syscalls.port_allocate consumer ~backlog:8 () in
      let svc_port = Mach_ipc.Port_space.lookup_exn (Task.space consumer) svc in
      let done_ = Ivar.create () in
      ignore
        (Thread.spawn consumer ~name:"consumer.main" (fun () ->
             for _ = 1 to items do
               ignore (Syscalls.msg_receive consumer ~from:(`Port svc) ())
             done;
             Ivar.fill done_ ()));
      ignore
        (Thread.spawn producer ~name:"producer.main" (fun () ->
             let (), elapsed =
               spanned cluster.Kernel.c_kernels.(0) "norma_messages" (fun () ->
                   for _ = 1 to items do
                     ignore
                       (Syscalls.msg_send producer
                          (Message.make ~dest:svc_port [ Message.Data (Bytes.create item_size) ]))
                   done;
                   Ivar.read done_)
             in
             out := Some (elapsed /. float_of_int items))));
  Engine.run cluster.Kernel.c_engine;
  (Option.get !out, ipc_counters (Array.to_list cluster.Kernel.c_kernels))

let norma_shared ~items ~item_size =
  let cluster = Kernel.create_cluster ~hosts:2 ~config:norma_config () in
  let out = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(item_size + page) in
      let producer = Task.create cluster.Kernel.c_kernels.(0) ~name:"producer" () in
      let consumer = Task.create cluster.Kernel.c_kernels.(1) ~name:"consumer" () in
      let p_addr =
        Syscalls.vm_allocate_with_pager producer ~size:(item_size + page) ~anywhere:true
          ~memory_object:region ~offset:0 ()
      in
      let c_addr =
        Syscalls.vm_allocate_with_pager consumer ~size:(item_size + page) ~anywhere:true
          ~memory_object:region ~offset:0 ()
      in
      let full = Mach_sim.Semaphore.create 0 in
      let empty = Mach_sim.Semaphore.create 1 in
      let done_ = Ivar.create () in
      let policy = Fault.Abort_after 60_000_000.0 in
      ignore
        (Thread.spawn consumer ~name:"consumer.main" (fun () ->
             for _ = 1 to items do
               Mach_sim.Semaphore.acquire full;
               ignore (Syscalls.read_bytes consumer ~addr:c_addr ~len:item_size ~policy ());
               Mach_sim.Semaphore.release empty
             done;
             Ivar.fill done_ ()));
      let payload = Bytes.create item_size in
      ignore
        (Thread.spawn producer ~name:"producer.main" (fun () ->
             let (), elapsed =
               spanned cluster.Kernel.c_kernels.(0) "norma_shared" (fun () ->
                   for _ = 1 to items do
                     Mach_sim.Semaphore.acquire empty;
                     ignore (ok_exn "produce" (Syscalls.write_bytes producer ~addr:p_addr payload ~policy ()));
                     Mach_sim.Semaphore.release full
                   done;
                   Ivar.read done_)
             in
             out := Some (elapsed /. float_of_int items))));
  Engine.run cluster.Kernel.c_engine;
  Option.get !out

let body scale =
  let items, sizes =
    match scale with Full -> (50, [ 64; 1024; 4096; 16384 ]) | Small -> (5, [ 1024 ])
  in
  let rows =
    List.map
      (fun s ->
        let um, uc = uma_messages ~items ~item_size:s in
        let nm, nc = norma_messages ~items ~item_size:s in
        let us_ = uma_shared ~items ~item_size:s in
        let ns = norma_shared ~items ~item_size:s in
        let modes =
          [ ("uma_messages", um); ("uma_shared", us_); ("norma_messages", nm); ("norma_shared", ns) ]
        in
        (s, modes, uc, nc))
      sizes
  in
  (* IPC counters of the message-based runs at the largest item size:
     on the UMA the small items ride the RPC fast path; on the NORMA the
     same workload shows the wire-delivery bookkeeping. *)
  let s, _, uc, nc = List.nth rows (List.length rows - 1) in
  List.concat_map
    (fun (s, modes, _, _) -> List.map (fun (m, v) -> (Printf.sprintf "%s_us_%d" m s, v)) modes)
    rows
  @ (("ipc_item_size", fi s) :: List.map (fun (k, v) -> ("uma_ipc_" ^ k, v)) uc)
  @ List.map (fun (k, v) -> ("norma_ipc_" ^ k, v)) nc

let tables pairs =
  let t =
    Table.create
      ~title:
        "E13: producer/consumer, per-item cost — shared memory vs messages by machine class \
         (Section 7)"
      ~columns:
        [ "item size"; "UMA messages us"; "UMA shared mem us"; "NORMA messages us";
          "NORMA shared mem us" ]
  in
  List.iter
    (fun (size, um) ->
      let s = int_of_string size in
      let at m = us0 (get pairs (Printf.sprintf "%s_us_%s" m size)) in
      Table.row t
        [
          (if s >= 1024 then Printf.sprintf "%d KB" (s / 1024) else size ^ " B");
          us0 um;
          at "uma_shared";
          at "norma_messages";
          at "norma_shared";
        ])
    (with_prefix pairs "uma_messages_us_");
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf "E13: IPC counters for the message runs (%d KB items)"
           (geti pairs "ipc_item_size" / 1024))
      ~columns:[ "counter"; "UMA (1 host)"; "NORMA (2 hosts)" ]
  in
  List.iter
    (fun (k, v) -> Table.row t2 [ k; us0 v; us0 (get pairs ("norma_ipc_" ^ k)) ])
    (with_prefix pairs "uma_ipc_");
  [ t; t2 ]

let experiment =
  {
    id = "E13";
    title = "Duality by machine class";
    paper_claim =
      "All three multiprocessor classes can support either mechanism, but which one is cheap \
       depends on the machine: on a tightly-coupled UMA, shared memory avoids per-message \
       kernel overhead; on a NORMA, messages are native and coherent shared memory pays \
       ownership round trips per exchange (Section 7).";
    body;
    tables;
  }
