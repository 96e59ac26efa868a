(* E7 — §8.2: task migration strategies. Copy-on-reference makes the
   freeze/restart latency independent of address-space size and moves
   only referenced pages; eager copy pays for everything up front;
   pre-paging trades extra transfer for fewer demand faults. *)

open Mach
open Common
module Migrator = Mach_pagers.Migrator

let page = 4096

let strategy_name = function
  | Migrator.Eager_copy -> "eager copy"
  | Migrator.Copy_on_reference -> "copy-on-reference"
  | Migrator.Pre_paging n -> Printf.sprintf "pre-paging(%d)" n

let run_point ~pages ~touched_fraction strategy =
  run_cluster ~hosts:2 (fun cluster ->
      let engine = cluster.Kernel.c_engine in
      let src = Task.create cluster.Kernel.c_kernels.(0) ~name:"job" () in
      let ready = Ivar.create () in
      ignore
        (Thread.spawn src ~name:"job.init" (fun () ->
             let addr = Syscalls.vm_allocate src ~size:(pages * page) ~anywhere:true () in
             for i = 0 to pages - 1 do
               ignore
                 (ok_exn "init"
                    (Syscalls.write_bytes src ~addr:(addr + (i * page))
                       (Bytes.make 64 (Char.chr (65 + (i mod 26))))
                       ()))
             done;
             Ivar.fill ready addr));
      let addr = Ivar.read ready in
      let mgr = Migrator.start cluster.Kernel.c_kernels.(0) () in
      let t0 = Engine.now engine in
      let mg = Migrator.migrate mgr ~src ~dst_kernel:cluster.Kernel.c_kernels.(1) strategy in
      let migrate_us = Engine.now engine -. t0 in
      let dst = mg.Migrator.mg_task in
      (* The migrated task resumes and touches a fraction of its pages. *)
      let touched = max 1 (int_of_float (float_of_int pages *. touched_fraction)) in
      let finished = Ivar.create () in
      ignore
        (Thread.spawn dst ~name:"job-migrated.main" (fun () ->
             let t1 = Engine.now engine in
             for i = 0 to touched - 1 do
               (* Spread references across the space. *)
               let p = i * pages / touched in
               ignore
                 (ok_exn "touch"
                    (Syscalls.read_bytes dst ~addr:(addr + (p * page)) ~len:64
                       ~policy:(Fault.Abort_after 30_000_000.0) ()))
             done;
             Ivar.fill finished (Engine.now engine -. t1)));
      let run_us = Ivar.read finished in
      (migrate_us, run_us, Migrator.pages_transferred mgr))

let strategies =
  [
    ("eager", Migrator.Eager_copy);
    ("cor", Migrator.Copy_on_reference);
    ("prepage4", Migrator.Pre_paging 4);
  ]

let body scale =
  let pages, fractions = match scale with Full -> (128, [ 0.1; 0.5; 1.0 ]) | Small -> (16, [ 0.5 ]) in
  ("pages", fi pages)
  :: List.concat_map
       (fun frac ->
         List.concat_map
           (fun (key, strategy) ->
             let migrate_us, run_us, shipped = run_point ~pages ~touched_fraction:frac strategy in
             let k name = Printf.sprintf "%s_%.0f_%s" name (frac *. 100.0) key in
             [ (k "migrate_us", migrate_us); (k "run_us", run_us); (k "shipped", fi shipped) ])
           strategies)
       fractions

let tables pairs =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E7: migrating a %d-page task between hosts (Section 8.2)"
           (geti pairs "pages"))
      ~columns:
        [ "touched"; "strategy"; "freeze-to-restart ms"; "post-restart run ms"; "total ms";
          "pages shipped" ]
  in
  List.iter
    (fun (point, migrate_us) ->
      let run_us = get pairs ("run_us_" ^ point) in
      let pct, key = Scanf.sscanf point "%s@_%s" (fun p k -> (p, k)) in
      Table.row t
        [
          pct ^ "%";
          strategy_name (List.assoc key strategies);
          Printf.sprintf "%.1f" (migrate_us /. 1000.0);
          Printf.sprintf "%.1f" (run_us /. 1000.0);
          Printf.sprintf "%.1f" ((migrate_us +. run_us) /. 1000.0);
          us0 (get pairs ("shipped_" ^ point));
        ])
    (with_prefix pairs "migrate_us_");
  [ t ]

let experiment =
  {
    id = "E7";
    title = "Task migration";
    paper_claim =
      "Copy-on-reference migration restarts the task almost immediately and ships only the \
       pages it references; eager copy pays the whole address space before restart; pre-paging \
       helps tasks with predictable access patterns (Section 8.2, after Zayas).";
    body;
    tables;
  }
