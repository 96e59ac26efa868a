(* perf_baseline.exe PERF_EXE prints BENCH_perf.json. It runs bench/perf's
   perf.exe on the benchmark's four workloads, traced, at seed 1, for 0.25
   simulated seconds, and keeps one section per workload of the keys that
   repeat exactly for a seed: e2e.sim_*, reg.* and layer.* but layer.gc.*
   (host words allocated, which move with record layout). It exits 1 when
   a run fails an op or a check. *)

let workloads = [ "fork_cow"; "rpc_ool"; "compile_paging"; "netmem_norma" ]

let simulated k =
  List.exists (fun prefix -> String.starts_with ~prefix k) [ "e2e.sim_"; "reg."; "layer." ]
  && not (String.starts_with ~prefix:"layer.gc." k)

(* The report's head holds one `"key": number` pair per line. *)
let pair line =
  match Scanf.sscanf line " %S : %f" (fun k v -> (k, v)) with
  | k, v -> if simulated k then Some (k, v) else None
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let start perf w =
  let args = [| perf; "--workload"; w; "--trace"; "1"; "--seed"; "1"; "--seconds"; "0.25" |] in
  (w, Unix.open_process_args_in perf args)

let section (w, run) =
  let pairs = List.filter_map pair (In_channel.input_lines run) in
  if Unix.close_process_in run <> Unix.WEXITED 0 then exit 1;
  Printf.sprintf "  %S: %s" w (Mach_util.Metrics.to_json ~indent:4 pairs)

(* The four runs go side by side; one whose pipe fills waits its turn to
   be read. *)
let () =
  match Sys.argv with
  | [| _; perf |] ->
    let runs = List.map (start perf) workloads in
    Printf.printf "{\n%s\n}\n" (String.concat ",\n" (List.map section runs))
  | _ -> prerr_endline "usage: perf_baseline.exe PERF_EXE"; exit 2
