(* E2 — Table 3-3: virtual memory operation costs. *)

open Mach
open Common

let page = 4096

(* Each operation's key and its row label. *)
let ops =
  [
    ("alloc_dealloc_us", "vm_allocate + vm_deallocate (64 KB)");
    ("protect_us", "vm_protect (256 KB range)");
    ("inherit_us", "vm_inherit (256 KB range)");
    ("read_us", "vm_read (1 page)");
    ("write_us", "vm_write (1 page)");
    ("copy_us", "vm_copy (1 page)");
    ("regions_us", "vm_regions");
    ("statistics_us", "vm_statistics");
  ]

let body scale =
  let rounds = match scale with Full -> 100 | Small -> 5 in
  run_system (fun sys task ->
      let engine = sys.Kernel.engine in
      let per x = x /. float_of_int rounds in
      let time_op f = snd (timed engine (fun () -> for i = 1 to rounds do f i done)) in
      let alloc_us =
        time_op (fun _ ->
            let addr = Syscalls.vm_allocate task ~size:(16 * page) ~anywhere:true () in
            Syscalls.vm_deallocate task ~addr ~size:(16 * page))
      in
      let base = Syscalls.vm_allocate task ~size:(64 * page) ~anywhere:true () in
      ignore (ok_exn "warm" (Syscalls.write_bytes task ~addr:base (Bytes.make (64 * page) 'x') ()));
      let protect_us =
        time_op (fun _ ->
            Syscalls.vm_protect task ~addr:base ~size:(64 * page) ~set_max:false Prot.read;
            Syscalls.vm_protect task ~addr:base ~size:(64 * page) ~set_max:false Prot.rw)
      in
      let inherit_us =
        time_op (fun _ -> Syscalls.vm_inherit task ~addr:base ~size:(64 * page) Vm_types.Inherit_share)
      in
      let read_us =
        time_op (fun _ -> ignore (ok_exn "vm_read" (Syscalls.vm_read task ~addr:base ~size:page ())))
      in
      let write_us =
        time_op (fun _ ->
            ignore (ok_exn "vm_write" (Syscalls.vm_write task ~addr:base (Bytes.make page 'y') ())))
      in
      let copy_us =
        time_op (fun _ ->
            ignore
              (ok_exn "vm_copy"
                 (Syscalls.vm_copy task ~src_addr:base ~size:page ~dst_addr:(base + (32 * page)))))
      in
      let regions_us = time_op (fun _ -> ignore (Syscalls.vm_regions task)) in
      let stats_us = time_op (fun _ -> ignore (Syscalls.vm_statistics task)) in
      List.combine (List.map fst ops)
        (List.map per
           [ alloc_us /. 2.0; protect_us /. 2.0; inherit_us; read_us; write_us; copy_us;
             regions_us; stats_us ]))

let tables pairs =
  let t =
    Table.create ~title:"E2: virtual memory operations (Table 3-3)"
      ~columns:[ "operation"; "simulated us" ]
  in
  List.iter (fun (key, op) -> Table.row t [ op; us (get pairs key) ]) ops;
  [ t ]

let experiment =
  {
    id = "E2";
    title = "VM operations";
    paper_claim =
      "Table 3-3 lists the vm_* operations every task can perform on its address space; \
       allocation is lazy (zero-fill on demand) so structural operations cost microseconds, \
       not page copies.";
    body;
    tables;
  }
