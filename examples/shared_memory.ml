(* The §4.2 walkthrough, frame by frame: two clients on different hosts
   share a memory region served by a consistent network shared memory
   manager. Frame 1: both map the object. Frame 2: both take read
   faults on the same page. Frame 3: one writes — the other's cached
   copy is invalidated before write access is granted.

   Run with: dune exec examples/shared_memory.exe *)

open Mach
module Netmem = Mach_pagers.Netmem

let page = 4096

let show cluster fmt =
  Printf.ksprintf
    (fun s -> Printf.printf "[%8.3f ms] %s\n" (Engine.now cluster.Kernel.c_engine /. 1e3) s)
    fmt

let () =
  let cluster = Kernel.create_cluster ~hosts:2 () in
  Engine.spawn cluster.Kernel.c_engine ~name:"setup" (fun () ->
      (* The shared memory server may live on either client's host, or
         a third one; here it runs on host 0. *)
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(4 * page) in
      Netmem.write_initial nm ~region ~offset:0 (Bytes.of_string "initial shared state");
      let a = Task.create cluster.Kernel.c_kernels.(0) ~name:"client-1" () in
      let b = Task.create cluster.Kernel.c_kernels.(1) ~name:"client-2" () in
      ignore
        (Thread.spawn a ~name:"client-1.main" (fun () ->
             (* Frame 1: each client maps the object X; each kernel
                makes its own pager_init call. *)
             let a_addr =
               Syscalls.vm_allocate_with_pager a ~size:(4 * page) ~anywhere:true
                 ~memory_object:region ~offset:0 ()
             in
             let b_addr =
               Syscalls.vm_allocate_with_pager b ~size:(4 * page) ~anywhere:true
                 ~memory_object:region ~offset:0 ()
             in
             show cluster "frame 1: mapped on host 0 at %#x, on host 1 at %#x (different addresses are fine)"
               a_addr b_addr;
             (* Frame 2: both take read faults on the same page; the
                server provides the data write-locked to each kernel. *)
             let read task addr =
               match Syscalls.read_bytes task ~addr ~len:20 () with
               | Ok bytes -> Bytes.to_string bytes
               | Error e -> failwith (Format.asprintf "read: %a" Access.pp_error e)
             in
             show cluster "frame 2: client-1 reads %S" (read a a_addr);
             show cluster "frame 2: client-2 reads %S" (read b b_addr);
             (match Netmem.page_state nm ~region ~page:0 with
             | `Readers n -> show cluster "         server records %d reader kernels, page write-locked" n
             | `Idle | `Writer | `Transition -> ());
             (* Frame 3: client-1 writes. Its kernel holds the data but
                not write access, so it sends pager_data_unlock; the
                server flushes client-2's kernel first, then grants the
                lock. *)
             (match Syscalls.write_bytes a ~addr:a_addr (Bytes.of_string "client-1 was here!!!") () with
             | Ok () -> ()
             | Error e -> failwith (Format.asprintf "write: %a" Access.pp_error e));
             show cluster "frame 3: client-1 wrote; invalidations so far: %d, write grants: %d"
               (Netmem.invalidations nm) (Netmem.grants nm);
             (* Client-2 reads again: its kernel refetches, and the
                writer is downgraded rather than flushed — its dirty
                page is cleaned back so the data is current, and it
                keeps a read-only copy. *)
             show cluster "frame 3: client-2 re-reads %S (coherent)" (read b b_addr);
             show cluster "totals: %d invalidations, %d downgrades, %d write grants"
               (Netmem.invalidations nm) (Netmem.downgrades nm) (Netmem.grants nm))));
  Engine.run cluster.Kernel.c_engine;
  print_endline "\nshared_memory finished."
