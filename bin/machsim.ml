(* machsim: inspect the simulated Mach kernel under a canned fault
   storm (Mach_workloads.Fault_storm). The experiments themselves run
   from the bench harness: bench/main.exe --only EN.

   Subcommands:
     machsim stat     [--json]
     machsim trace    [--filter vm] [--span N] [--limit 40]
*)

open Mach
module Table = Mach_util.Table
module Fault_storm = Mach_workloads.Fault_storm

(* The registry plus two rows for the event queue under it: a timer
   that outlives its wait shows up as a peak that grows with the storm. *)
let run_stat rounds as_json =
  let sys = Fault_storm.run ~rounds ~traced:true in
  let engine = sys.Kernel.engine in
  let rows =
    List.sort compare
      ([ ("engine.events_run", float_of_int (Engine.events_run engine));
         ("engine.peak_pending", float_of_int (Engine.peak_pending engine)) ]
      @ Metrics.snapshot (Kernel.metrics sys.Kernel.kernel))
  in
  if as_json then print_string (Metrics.to_json rows)
  else begin
    let t =
      Table.create ~title:"host metrics registry (vm_statistics superset)"
        ~columns:[ "metric"; "value" ]
    in
    List.iter
      (fun (k, v) ->
        Table.row t
          [ k; (if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v) ])
      rows;
    Table.print t
  end;
  0

let run_trace rounds filter span limit =
  let kernel = (Fault_storm.run ~rounds ~traced:true).Kernel.kernel in
  let tr = Kernel.trace kernel in
  let events =
    List.filter
      (fun ev ->
        (match filter with Some sub -> ev.Trace.ev_sub = sub | None -> true)
        && match span with Some id -> ev.Trace.ev_span = id | None -> true)
      (Trace.events tr)
  in
  let total = List.length events in
  let shown = match limit with Some n -> n | None -> total in
  List.iteri
    (fun i ev ->
      if i < shown then
        Printf.printf "%10.1f  cpu%d  span%-4d  %-6s %-5s %s\n" ev.Trace.ev_time
          ev.Trace.ev_cpu ev.Trace.ev_span ev.Trace.ev_sub
          (Trace.kind_to_string ev.Trace.ev_kind)
          ev.Trace.ev_label)
    events;
  if shown < total then Printf.printf "... (%d more events; raise --limit)\n" (total - shown);
  let opens, closes = Trace.balance tr in
  Printf.printf "\n%d events buffered (%d dropped by ring), %d spans opened / %d closed\n"
    (List.length (Trace.events tr))
    (Trace.dropped tr) opens closes;
  (* Per-fault latency percentiles, reduced from the vm fault spans. *)
  let lat = Mach_util.Stats.create () in
  List.iter
    (fun sp ->
      if sp.Trace.sp_sub = "vm" && sp.Trace.sp_label = "fault" then
        Mach_util.Stats.add lat (Trace.span_duration sp))
    (Trace.spans tr);
  if Mach_util.Stats.count lat > 0 then
    Printf.printf "fault latency (us): n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f\n"
      (Mach_util.Stats.count lat) (Mach_util.Stats.mean lat)
      (Mach_util.Stats.percentile lat 50.0)
      (Mach_util.Stats.percentile lat 90.0)
      (Mach_util.Stats.percentile lat 99.0)
      (Mach_util.Stats.max lat);
  0

(* ---- cmdliner ---------------------------------------------------------- *)

open Cmdliner

let stat_cmd =
  let rounds = Arg.(value & opt int 40 & info [ "rounds" ] ~doc:"Pages touched per fault phase.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry snapshot as JSON.") in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Run a canned fault storm and dump the host's unified metrics registry (every \
          subsystem.counter the vm, ipc and scheduler blocks export, plus each pager's stats) \
          and the engine's events run and peak event-queue length")
    Term.(const run_stat $ rounds $ json)

let trace_cmd =
  let rounds = Arg.(value & opt int 40 & info [ "rounds" ] ~doc:"Pages touched per fault phase.") in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~doc:"Only events of this subsystem (vm | ipc | sched | bench)."
          ~docv:"SUBSYSTEM")
  in
  let span =
    Arg.(value & opt (some int) None & info [ "span" ] ~doc:"Only events of this span id.")
  in
  let limit =
    Arg.(value & opt (some int) (Some 40) & info [ "limit" ] ~doc:"Max events to print.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a canned fault storm with the causal trace enabled, dump the event spine \
          (filterable by subsystem or span id) and reduce per-fault latency percentiles from \
          the fault spans")
    Term.(const run_trace $ rounds $ filter $ span $ limit)

let main =
  let doc = "inspect the simulated Mach kernel under a canned fault storm" in
  Cmd.group (Cmd.info "machsim" ~doc) [ stat_cmd; trace_cmd ]

let () = exit (Cmd.eval' main)
