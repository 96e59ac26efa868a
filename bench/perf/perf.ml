(* The two-clock benchmark: one workload per process, measured on the
   simulated clock (what the modelled Mach costs) and the host clock
   (what the simulator costs).

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --repeat N --workload NAME|all [--seed N] [--seconds S]
     perf.exe --smoke
     perf.exe --spec

   A run prints a flat report (Metrics.to_json) and, as its last line,
   the result object: end-to-end metrics untraced, per-layer metrics
   with --trace 1. It exits non-zero if any op or correctness check
   failed. See README.md for the metrics and workloads. *)

open Mach

let workloads =
  [ Fork_cow.workload; Rpc_ool.workload; Compile_paging.workload; Netmem_norma.workload ]

let find_workload name = List.find_opt (fun w -> w.Workload.name = name) workloads

(* BENCHMARK.json's run length, and the default --seconds. *)
let run_seconds = 4
let setups_per_run = 7

type pass = {
  ops : int;
  failed : int;
  elapsed_us : float;
  host_s : float;
  host_rate : float;  (** untraced chunks, ops per host CPU second *)
  traced_rate : float;  (** traced chunks (0 when untraced) *)
  op_p50 : float;
  op_p99 : float;
  layers : (string * float) list;
  gc : (string * float) list;
  spans : (string * float) list;
  reg : Metrics.snapshot;  (** registry deltas over the measured phase *)
}

(* Nearest-rank [q]-quantile of a list. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Host speed is read from the fastest tenth of the chunks. Other
   tenants of the machine only ever slow a chunk down, so the upper tail
   tracks the simulator's own speed; on the reference machine the median
   and the whole-run rate spread up to twice as much between runs. *)
let host_rate rates = quantile 0.9 rates

(* With [traced], tracing comes on for the last quarter of the chunks
   only: the ring keeps just the newest events anyway, and the untraced
   chunks before it give the host-time baseline for the overhead and the
   GC counts. Tracing charges no simulated time, so every simulated
   number is the same as in an untraced pass. *)
let measure (inst : Workload.instance) ~traced =
  Gc.compact ();
  let trace = Kernel.trace inst.kernels.(0) in
  let free_frames () =
    Array.fold_left (fun acc k -> min acc (Kernel.free_frames k)) max_int inst.kernels
  in
  let m =
    Meter.create ~free_frames ~ops:inst.ops ~touches:inst.touches ~chunk_ops:inst.chunk_ops
      inst.engine trace
  in
  let chunks = inst.ops / m.Meter.chunk_ops in
  let untraced_chunks = if traced then chunks - max 1 (chunks / 4) else chunks in
  let before = Layers.probe inst in
  let gc0 = Gc.quick_stat () in
  let gc1 = ref gc0 in
  Trace.set_enabled trace (traced && untraced_chunks = 0);
  m.Meter.on_chunk <-
    (fun () ->
      if Lat.count m.Meter.chunk_cpu = untraced_chunks then begin
        gc1 := Gc.quick_stat ();
        Trace.set_enabled trace traced
      end);
  let finish = ref None in
  m.Meter.on_finish <-
    (fun () ->
      let cpu = Meter.cpu () in
      Trace.set_enabled trace false;
      finish := Some (cpu, Engine.now inst.engine, Layers.probe inst));
  let sim0 = Engine.now inst.engine in
  let cpu0 = Meter.cpu () in
  inst.run m;
  Engine.run inst.engine;
  let cpu1, sim1, after =
    match !finish with
    | Some f -> f
    | None ->
      Meter.check m false "measured phase deadlocked";
      (Meter.cpu (), Engine.now inst.engine, Layers.probe inst)
  in
  let elapsed_us = sim1 -. sim0 in
  let sorted = Lat.sorted m.Meter.op in
  let layers = Layers.derive inst m ~elapsed_us before after in
  let spans = if traced then Layers.of_trace trace else [] in
  let chunk = m.Meter.chunk_cpu in
  let rates =
    List.init (Lat.count chunk) (fun i ->
        let t0 = if i = 0 then cpu0 else Lat.get chunk (i - 1) in
        float_of_int m.Meter.chunk_ops /. (Lat.get chunk i -. t0))
  in
  let plain = List.filteri (fun i _ -> i < untraced_chunks) rates in
  let with_trace = List.filteri (fun i _ -> i >= untraced_chunks) rates in
  inst.verify m;
  Engine.run inst.engine;
  {
    ops = inst.ops;
    failed = Meter.failures m + (inst.ops - Lat.count m.Meter.op);
    elapsed_us;
    host_s = cpu1 -. cpu0;
    host_rate = host_rate plain;
    traced_rate = host_rate with_trace;
    op_p50 = Lat.percentile_of_sorted sorted 50.0;
    op_p99 = Lat.percentile_of_sorted sorted 99.0;
    layers;
    gc = Layers.gc ~ops:(untraced_chunks * m.Meter.chunk_ops) gc0 !gc1;
    spans;
    reg = Metrics.delta ~before:before.Layers.reg ~after:after.Layers.reg;
  }

let sim_e2e p =
  let ops = float_of_int p.ops in
  [
    ("sim_ops_per_s", ops /. (p.elapsed_us /. 1e6));
    ("sim_op_p50_us", p.op_p50);
    ("sim_op_p99_us", p.op_p99);
  ]

(* Everything the simulated clock decides: equal across repeats of one
   seed and between traced and untraced runs. *)
let sim_signature p = sim_e2e p @ p.layers @ p.reg

let timed_setup (w : Workload.t) ~seed ~seconds =
  Gc.full_major ();
  let t0 = Meter.cpu () in
  let inst = w.setup ~seed ~seconds in
  (inst, Meter.cpu () -. t0)

let metric name = List.find (fun m -> m.Spec.name = name) (Spec.end_to_end @ Spec.per_layer)

(* The flat report, then the result line; the exit code says whether
   every op and check passed. *)
let report_and_exit ~header p ~run values =
  let report =
    header
    @ run
    @ [ ("run.host_s", p.host_s); ("run.sim_elapsed_us", p.elapsed_us) ]
    @ List.map (fun (k, v) -> ("e2e." ^ k, v)) (sim_e2e p)
    @ List.map (fun (k, v) -> ("layer." ^ k, v)) (p.layers @ p.gc @ p.spans)
    @ List.map (fun (k, v) -> ("reg." ^ k, v)) p.reg
  in
  print_endline (Metrics.to_json report);
  print_endline
    (Spec.result_line ~correct:(p.failed = 0) ~attempted:p.ops ~failed:p.failed
       (List.map (fun (k, v) -> (metric k, v)) values));
  exit (if p.failed = 0 then 0 else 1)

let run_untraced w ~seed ~seconds ~header =
  (* Several set-ups, each on a fresh machine; the last one is measured. *)
  let rec setups k acc =
    let inst, s = timed_setup w ~seed ~seconds in
    if k = 1 then (inst, List.rev (s :: acc)) else setups (k - 1) (s :: acc)
  in
  let inst, setup_times = setups setups_per_run [] in
  let p = measure inst ~traced:false in
  let peak_heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1e6 in
  report_and_exit ~header p
    ~run:(List.mapi (fun i s -> (Printf.sprintf "run.setup_s.%d" i, s)) setup_times)
    (sim_e2e p
    @ [
        ("host_ops_per_s", p.host_rate);
        ("setup_s", quantile 0.5 setup_times);
        ("peak_heap_mb", peak_heap_mb);
      ])

let run_traced w ~seed ~seconds ~header =
  let p = measure (fst (timed_setup w ~seed ~seconds)) ~traced:true in
  let layers =
    p.layers @ p.gc
    @ [ ("trace.overhead_pct", 100.0 *. (Layers.ratio p.host_rate p.traced_rate -. 1.0)) ]
    @ p.spans
  in
  report_and_exit ~header p
    ~run:[ ("run.host_ops_per_s", p.host_rate); ("run.traced_host_ops_per_s", p.traced_rate) ]
    (List.map (fun m -> (m.Spec.name, List.assoc m.Spec.name layers)) Spec.per_layer)

(* {2 --repeat: quartiles over fresh processes} *)

(* Python's statistics.quantiles(xs, n=4), default 'exclusive' method. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let last_line ic =
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  !last

let repeat ws ~n ~seed ~seconds =
  let rows =
    List.concat_map
      (fun (w : Workload.t) ->
        let lines =
          List.init n (fun i ->
              let args =
                [| Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int (seed + i);
                   "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0" |]
              in
              let ic = Unix.open_process_args_in Sys.executable_name args in
              let line = last_line ic in
              match Unix.close_process_in ic with
              | Unix.WEXITED 0 -> line
              | _ -> failwith (Printf.sprintf "%s run %d failed" w.name i))
        in
        List.concat_map
          (fun (m : Spec.metric) ->
            let values = List.filter_map (fun l -> Spec.value_in_line l m.name) lines in
            let q1, med, q3 = quartiles values in
            let spread = if med = 0.0 then 0.0 else (q3 -. q1) /. med in
            (match m.bound with
            | Some b when spread > b ->
              Printf.eprintf "SPREAD %s %s: %.4f exceeds bound %.4f\n%!" w.name m.name spread b
            | Some _ | None -> ());
            let key s = Printf.sprintf "%s.%s.%s" w.name m.name s in
            [ (key "q1", q1); (key "median", med); (key "q3", q3); (key "spread", spread) ])
          Spec.end_to_end)
      ws
  in
  let tm = Unix.gmtime (Unix.time ()) in
  let date = ((tm.Unix.tm_year + 1900) * 10000) + ((tm.Unix.tm_mon + 1) * 100) + tm.Unix.tm_mday in
  print_endline
    (Metrics.to_json
       ([ ("date", float_of_int date);
          ("nproc", float_of_int (Domain.recommended_domain_count ()));
          ("runs", float_of_int n);
          ("first_seed", float_of_int seed);
          ("seconds", seconds) ]
       @ rows));
  exit 0

(* {2 --smoke: the runtest guard} *)

(* All four workloads at 1/200 of the default size: checks pass, and a
   repeat with the same seed and a traced pass reproduce every simulated
   number. *)
let smoke () =
  let seconds = float_of_int run_seconds /. 200.0 in
  let bad = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let pass traced = measure (w.setup ~seed:1 ~seconds) ~traced in
      let a = pass false and b = pass false and c = pass true in
      let report what ok =
        if not ok then begin
          incr bad;
          Printf.printf "smoke %s: %s\n" w.name what
        end
      in
      report "ops or checks failed" (a.failed + b.failed + c.failed = 0);
      report "same seed, different simulated results" (sim_signature a = sim_signature b);
      report "traced run's simulated results differ" (sim_signature a = sim_signature c);
      report "no fault spans in the trace ring"
        (List.assoc "fault.span_window" c.spans > 0.0 || w.name = "rpc_ool");
      if !bad = 0 then Printf.printf "smoke %s: ok (%d ops)\n" w.name a.ops)
    workloads;
  exit (if !bad = 0 then 0 else 1)

let spec () =
  print_string
    (Spec.benchmark_json ~command:[ "sh"; "bench/perf/run.sh" ] ~paths:[ "bench/perf" ]
       ~run_seconds
       (List.map (fun w -> (w.Workload.name, w.Workload.why)) workloads));
  exit 0

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  let seconds = ref (float_of_int run_seconds) in
  let repeat_n = ref 0 and mode = ref `Run in
  let usage = "perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--repeat N]" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME fork_cow, rpc_ool, compile_paging or netmem_norma (all: every one, with --repeat)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S run length: about S host CPU seconds of measured phase on the reference machine \
         (default 4)" );
      ("--trace", Arg.Set_int trace, "0|1 1: report the per-layer metrics of a traced run");
      ( "--repeat",
        Arg.Set_int repeat_n,
        "N run N fresh untraced processes (seeds --seed, --seed + 1, ...) and print the \
         quartiles of every end-to-end metric" );
      ( "--smoke",
        Arg.Unit (fun () -> mode := `Smoke),
        " every workload at 1/200 size: checks, determinism, trace identity" );
      ("--spec", Arg.Unit (fun () -> mode := `Spec), " print BENCHMARK.json");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* The lossless fabric is what is measured; a fault plan in the
     environment would silently change every NORMA number. *)
  Unix.putenv "MACH_CHAOS" "";
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  if !seconds <= 0.0 then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  match !mode with
  | `Spec -> spec ()
  | `Smoke -> smoke ()
  | `Run when !repeat_n > 0 ->
    let ws =
      if !workload = "all" then workloads
      else match find_workload !workload with Some w -> [ w ] | None -> fail usage
    in
    repeat ws ~n:!repeat_n ~seed:!seed ~seconds:!seconds
  | `Run -> (
    match find_workload !workload with
    | None -> fail usage
    | Some w ->
      let header =
        [
          ("run.seed", float_of_int !seed);
          ("run.seconds", !seconds);
          ("run.trace", float_of_int !trace);
        ]
      in
      if !trace = 0 then run_untraced w ~seed:!seed ~seconds:!seconds ~header
      else run_traced w ~seed:!seed ~seconds:!seconds ~header)
