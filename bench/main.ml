(* Benchmark harness: reproduces every table/figure-level claim of the
   paper's evaluation (E1–E13, see DESIGN.md), then runs a bechamel
   microbench suite (one Test.make per experiment, measuring the
   harness itself). Each experiment has one body: the tables, --json
   and the gate read its full-scale run; --smoke and bechamel its
   small-scale run.

   Usage:
     main.exe                 run all experiments + microbenches
     main.exe --only E4,E7    run selected experiments
     main.exe --list          list experiments
     main.exe --no-bechamel   skip the wall-clock microbenches
     main.exe --smoke         small-scale run of each experiment,
                              tables rendered but not printed
     main.exe --json out.json write the pairs the tables are rendered
                              from (own metrics and reg.* registry
                              snapshot) as JSON instead of tables
                              (gate.exe checks this file) *)

module Table = Mach_util.Table
module Metrics = Mach_util.Metrics

let experiments : Common.experiment list =
  [
    E01_ipc.experiment;
    E02_vm.experiment;
    E03_copy_map.experiment;
    E04_file_cache.experiment;
    E05_multiprocessor.experiment;
    E06_netmem.experiment;
    E07_migration.experiment;
    E08_camelot.experiment;
    E09_failures.experiment;
    E10_fault_breakdown.experiment;
    E11_fork_cow.experiment;
    E12_ablations.experiment;
    E13_duality.experiment;
  ]

let run_experiment (e : Common.experiment) =
  Printf.printf "\n### %s — %s\n" e.Common.id e.Common.title;
  Printf.printf "Paper: %s\n\n" e.Common.paper_claim;
  let t0 = Unix.gettimeofday () in
  List.iter Table.print (e.Common.tables (Common.measure e Common.Full));
  Printf.printf "(experiment wall time: %.2fs)\n" (Unix.gettimeofday () -. t0)

let run_bechamel selected =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let tests =
    List.map
      (fun (e : Common.experiment) ->
        Test.make ~name:(e.Common.id ^ "-" ^ e.Common.title)
          (Staged.stage (fun () -> ignore (Common.measure e Common.Small))))
      selected
  in
  let test = Test.make_grouped ~name:"mach-repro" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n### Bechamel microbenches (wall-clock per small-scale run)\n\n";
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, result) ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-44s %14.0f ns/run\n" name est
      | Some _ | None -> Printf.printf "  %-44s (no estimate)\n" name)
    rows

(* Sanity pass at the small scale: run every experiment once and render
   its tables, so a refactor that breaks a body or a table fails fast
   (the `bench-smoke` dune alias runs this). *)
let run_smoke selected =
  List.iter
    (fun (e : Common.experiment) ->
      Printf.printf "smoke %-4s %-28s ... %!" e.Common.id e.Common.title;
      let t0 = Unix.gettimeofday () in
      List.iter (fun t -> ignore (Table.render t)) (e.Common.tables (Common.measure e Common.Small));
      Printf.printf "ok (%.2fs)\n%!" (Unix.gettimeofday () -. t0))
    selected

(* Machine-readable results: one flat {metric: number} object per
   experiment, keyed by experiment id — the same pairs the tables are
   rendered from: the experiment's own metrics, then every
   "subsystem.counter" of every kernel its run booted, prefixed "reg.". *)
let run_json path selected =
  let sections =
    List.map
      (fun (e : Common.experiment) ->
        Printf.printf "json %-4s %-28s ... %!" e.Common.id e.Common.title;
        let t0 = Unix.gettimeofday () in
        let pairs = Common.measure e Common.Full in
        Printf.printf "ok (%.2fs)\n%!" (Unix.gettimeofday () -. t0);
        Printf.sprintf "  %S: %s" e.Common.id (Metrics.to_json ~indent:4 pairs))
      selected
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n" (String.concat ",\n" sections));
  Printf.printf "wrote %s (%d experiments)\n" path (List.length sections)

let main only list_only no_bechamel smoke json_file =
  if list_only then begin
    List.iter
      (fun (e : Common.experiment) -> Printf.printf "%-4s %s\n" e.Common.id e.Common.title)
      experiments;
    0
  end
  else begin
    let selected =
      match only with
      | [] -> experiments
      | ids ->
        let wanted = List.map String.uppercase_ascii ids in
        List.filter (fun (e : Common.experiment) -> List.mem e.Common.id wanted) experiments
    in
    if selected = [] then begin
      prerr_endline "no matching experiments (try --list)";
      1
    end
    else if smoke then begin
      run_smoke selected;
      0
    end
    else if json_file <> "" then begin
      run_json json_file selected;
      0
    end
    else begin
      Printf.printf "Mach duality reproduction — experiment harness\n";
      Printf.printf "==============================================\n";
      List.iter run_experiment selected;
      if not no_bechamel then run_bechamel selected;
      0
    end
  end

open Cmdliner

let only =
  let doc = "Comma-separated experiment ids to run (e.g. E4,E7)." in
  Arg.(value & opt (list string) [] & info [ "only" ] ~doc ~docv:"IDS")

let list_only =
  let doc = "List experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let no_bechamel =
  let doc = "Skip the bechamel wall-clock microbench suite." in
  Arg.(value & flag & info [ "no-bechamel" ] ~doc)

let smoke =
  let doc = "Run each experiment once at small scale and render its tables without printing them." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let json_file =
  let doc =
    "Write machine-readable per-experiment numbers to $(docv) (JSON, one object per \
     experiment) instead of printing tables."
  in
  Arg.(value & opt string "" & info [ "json" ] ~doc ~docv:"FILE")

let cmd =
  let doc = "Reproduce the evaluation of the Mach memory/communication duality paper" in
  Cmd.v (Cmd.info "mach-bench" ~doc)
    Term.(const main $ only $ list_only $ no_bechamel $ smoke $ json_file)

let () = exit (Cmd.eval' cmd)
