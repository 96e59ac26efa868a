(* E6 — §4.2: consistent network shared memory. Efficiency "depends on
   the extent to which [algorithms] exhibit read/write locality":
   raising the write ratio multiplies invalidations and slows every
   access (the Li & Hudak curve). *)

open Mach
open Common
module Netmem = Mach_pagers.Netmem
module Access_patterns = Mach_workloads.Access_patterns

let page = 4096

let run_point ?(hosts = 2) ~pages ~ops_per_client ~write_ratio () =
  run_cluster ~hosts (fun cluster ->
      let nm = Netmem.start cluster.Kernel.c_kernels.(0) () in
      let region = Netmem.create_region nm ~size:(pages * page) in
      let engine = cluster.Kernel.c_engine in
      let run_client host seed finished =
        let task =
          Task.create cluster.Kernel.c_kernels.(host) ~name:(Printf.sprintf "sm-%d" host) ()
        in
        ignore
          (Thread.spawn task ~name:(Printf.sprintf "sm-%d.main" host) (fun () ->
               let addr =
                 Syscalls.vm_allocate_with_pager task ~size:(pages * page) ~anywhere:true
                   ~memory_object:region ~offset:0 ()
               in
               let rng = Rng.create seed in
               let trace =
                 Access_patterns.working_set ~pages ~ops:ops_per_client ~write_ratio
                   ~hot_fraction:0.25 ~hot_bias:0.8 rng
               in
               List.iter
                 (fun { Access_patterns.ap_page; ap_write } ->
                   match
                     Syscalls.touch task
                       ~addr:(addr + (ap_page * page) + Rng.int rng page)
                       ~write:ap_write
                       ~policy:(Fault.Abort_after 10_000_000.0) ()
                   with
                   | Ok () -> ()
                   | Error _ -> failwith "E6 access failed")
                 trace;
               Ivar.fill finished ()))
      in
      let fins = List.init hosts (fun _ -> Ivar.create ()) in
      let t0 = Engine.now engine in
      List.iteri (fun h fin -> run_client h ((11 * h) + 11) fin) fins;
      List.iter Ivar.read fins;
      let elapsed = Engine.now engine -. t0 in
      (elapsed, Netmem.invalidations nm, Netmem.downgrades nm, Netmem.grants nm))

let body scale =
  let pages, ops_per_client, ratios =
    match scale with
    | Full -> (32, 4_000, [ 0.0; 0.02; 0.1; 0.3; 0.5 ])
    | Small -> (8, 40, [ 0.0; 0.3 ])
  in
  let point ?(sweep = "") key ~hosts ~write_ratio =
    let elapsed, inv, downgrades, grants = run_point ~hosts ~pages ~ops_per_client ~write_ratio () in
    let total_ops = fi (hosts * ops_per_client) in
    List.map
      (fun (name, v) -> (Printf.sprintf "%s%s_%s" sweep name key, v))
      [
        ("access_us", elapsed /. total_ops);
        ("invalidations", fi inv);
        ("downgrades", fi downgrades);
        ("grants", fi grants);
        ("inval_per_100", fi inv /. total_ops *. 100.0);
      ]
  in
  let by_ratio =
    List.concat_map (fun wr -> point (Printf.sprintf "%.2f" wr) ~hosts:2 ~write_ratio:wr) ratios
  in
  (* More sharers: every write has more copies to invalidate. *)
  by_ratio
  @ List.concat_map
      (fun hosts -> point ~sweep:"hosts_" (string_of_int hosts) ~hosts ~write_ratio:0.1)
      [ 2; 3; 4 ]

let tables pairs =
  let t =
    Table.create
      ~title:"E6: network shared memory, 2 hosts, 32 pages, hot/cold working set (Section 4.2)"
      ~columns:
        [
          "write ratio"; "avg access us"; "invalidations"; "downgrades"; "write grants";
          "inval per 100 ops";
        ]
  in
  let t2 =
    Table.create
      ~title:"E6b: same workload at write ratio 0.10, varying the number of sharing hosts"
      ~columns:[ "hosts"; "avg access us"; "invalidations"; "downgrades"; "inval per 100 ops" ]
  in
  let row t sweep counts (key, v) =
    let at name = get pairs (sweep ^ name ^ "_" ^ key) in
    Table.row t
      ((key :: us v :: List.map (fun name -> us0 (at name)) counts)
      @ [ Printf.sprintf "%.1f" (at "inval_per_100") ])
  in
  List.iter (row t "" [ "invalidations"; "downgrades"; "grants" ]) (with_prefix pairs "access_us_");
  List.iter (row t2 "hosts_" [ "invalidations"; "downgrades" ]) (with_prefix pairs "hosts_access_us_");
  [ t; t2 ]

let experiment =
  {
    id = "E6";
    title = "Network shared memory coherence";
    paper_claim =
      "Multiple readers share pages freely; a write invalidates all other cached copies before \
       being granted, so performance degrades as the write ratio rises — efficient exactly when \
       algorithms exhibit read/write locality (s4.2, after Li).";
    body;
    tables;
  }
