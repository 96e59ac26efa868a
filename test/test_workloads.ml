(* Workload generators: determinism, shape, and the E4 harness glue. *)

module Rng = Mach_util.Rng
module Compile_sim = Mach_workloads.Compile_sim
module Access_patterns = Mach_workloads.Access_patterns

let check = Alcotest.check

let test_project_deterministic () =
  let gen () =
    Compile_sim.generate (Rng.create 5) ~sources:10 ~source_bytes:4096 ~headers:4
      ~header_bytes:8192 ~headers_per_source:2
  in
  let a = gen () and b = gen () in
  check Alcotest.int "same total" (Compile_sim.project_bytes a) (Compile_sim.project_bytes b);
  check Alcotest.(list (pair string int)) "same sources" a.Compile_sim.sources b.Compile_sim.sources

let test_project_shape () =
  let p =
    Compile_sim.generate (Rng.create 5) ~sources:10 ~source_bytes:4096 ~headers:4
      ~header_bytes:8192 ~headers_per_source:2
  in
  check Alcotest.int "sources" 10 (List.length p.Compile_sim.sources);
  check Alcotest.int "headers" 4 (List.length p.Compile_sim.headers);
  List.iter
    (fun (name, size) ->
      Alcotest.(check bool) ("positive " ^ name) true (size > 0))
    (p.Compile_sim.sources @ p.Compile_sim.headers)

(* A fake in-memory FILE_OPS to test the build driver. *)
let fake_ops () =
  let files : (string, bytes) Hashtbl.t = Hashtbl.create 32 in
  let reads = ref [] in
  let compute_total = ref 0.0 in
  let ops =
    {
      Compile_sim.read_file =
        (fun name ->
          reads := name :: !reads;
          match Hashtbl.find_opt files name with Some b -> Bytes.length b | None -> 0);
      write_file = (fun name data -> Hashtbl.replace files name data);
      compute = (fun us -> compute_total := !compute_total +. us);
      io_ops = (fun () -> 0);
    }
  in
  (ops, files, reads, compute_total)

let test_build_reads_and_writes () =
  let p =
    Compile_sim.generate (Rng.create 5) ~sources:6 ~source_bytes:1000 ~headers:4
      ~header_bytes:2000 ~headers_per_source:3
  in
  let ops, files, reads, compute_total = fake_ops () in
  Compile_sim.populate ops (Rng.create 6) p;
  check Alcotest.int "all files created" 10 (Hashtbl.length files);
  Compile_sim.build ops p;
  (* Every source read once; headers re-read per source. *)
  let read_count name = List.length (List.filter (( = ) name) !reads) in
  List.iter (fun (s, _) -> check Alcotest.int ("source read once: " ^ s) 1 (read_count s)) p.Compile_sim.sources;
  let header_reads = List.fold_left (fun acc (h, _) -> acc + read_count h) 0 p.Compile_sim.headers in
  check Alcotest.int "headers re-read per source" (6 * 3) header_reads;
  (* Objects were written. *)
  Alcotest.(check bool) "objects exist" true (Hashtbl.mem files "src000.o");
  Alcotest.(check bool) "compute charged" true (!compute_total > 0.0)

let test_access_patterns_bounds () =
  let rng = Rng.create 3 in
  let ws ~hot_fraction ~hot_bias =
    Access_patterns.working_set ~pages:16 ~ops:100 ~write_ratio:0.3 ~hot_fraction ~hot_bias rng
  in
  (* A tiny, a quarter, an all-hot and a cold-biased hot set. *)
  let all =
    ws ~hot_fraction:0.01 ~hot_bias:0.5
    @ ws ~hot_fraction:0.25 ~hot_bias:0.9
    @ ws ~hot_fraction:1.0 ~hot_bias:0.5
    @ ws ~hot_fraction:0.5 ~hot_bias:0.1
  in
  check Alcotest.int "total ops" 400 (List.length all);
  List.iter
    (fun { Access_patterns.ap_page; _ } ->
      Alcotest.(check bool) "page in range" true (ap_page >= 0 && ap_page < 16))
    all

let test_write_ratio_respected () =
  let rng = Rng.create 4 in
  let ops =
    Access_patterns.working_set ~pages:8 ~ops:5000 ~write_ratio:0.25 ~hot_fraction:0.25
      ~hot_bias:0.9 rng
  in
  let writes = List.length (List.filter (fun o -> o.Access_patterns.ap_write) ops) in
  Alcotest.(check bool) "around 25%" true (abs (writes - 1250) < 150)

let test_working_set_locality () =
  let rng = Rng.create 5 in
  let ops =
    Access_patterns.working_set ~pages:100 ~ops:5000 ~write_ratio:0.0 ~hot_fraction:0.1
      ~hot_bias:0.9 rng
  in
  let hot_hits = List.length (List.filter (fun o -> o.Access_patterns.ap_page < 10) ops) in
  (* ~90% of accesses on the hot 10%. *)
  Alcotest.(check bool) "locality respected" true (hot_hits > 4200)

let () =
  Alcotest.run "workloads"
    [
      ( "compile-sim",
        [
          Alcotest.test_case "deterministic" `Quick test_project_deterministic;
          Alcotest.test_case "shape" `Quick test_project_shape;
          Alcotest.test_case "build reads/writes" `Quick test_build_reads_and_writes;
        ] );
      ( "access-patterns",
        [
          Alcotest.test_case "bounds" `Quick test_access_patterns_bounds;
          Alcotest.test_case "write ratio" `Quick test_write_ratio_respected;
          Alcotest.test_case "working-set locality" `Quick test_working_set_locality;
        ] );
    ]
