(* Shared helpers for the experiment harness. *)

open Mach
module Table = Mach_util.Table
module Rng = Mach_util.Rng
module Metrics = Mach_util.Metrics

(* Every run_system/run_cluster notes the registry snapshot of each
   kernel it booted, so a run's pairs carry the unified
   "subsystem.counter" schema alongside its own metrics. *)
let collected : Metrics.snapshot list ref = ref []
let note_registry kernel = collected := Metrics.snapshot (Kernel.metrics kernel) :: !collected

(* Run a scenario inside a fresh single-host system; the callback runs
   on a task thread. Returns the callback's result. *)
let run_system ?config f =
  let sys = Kernel.create_system ?config () in
  let result = ref None in
  Engine.spawn sys.Kernel.engine ~name:"bench-setup" (fun () ->
      let task = Task.create sys.Kernel.kernel ~name:"bench" () in
      ignore
        (Thread.spawn task ~name:"bench.main" (fun () -> result := Some (f sys task))));
  Engine.run sys.Kernel.engine;
  note_registry sys.Kernel.kernel;
  match !result with
  | Some r -> r
  | None -> failwith "bench scenario deadlocked"

let run_cluster ~hosts ?config f =
  let cluster = Kernel.create_cluster ~hosts ?config () in
  let result = ref None in
  Engine.spawn cluster.Kernel.c_engine ~name:"bench-setup" (fun () ->
      result := Some (f cluster));
  Engine.run cluster.Kernel.c_engine;
  Array.iter note_registry cluster.Kernel.c_kernels;
  match !result with
  | Some r -> r
  | None -> failwith "bench cluster scenario deadlocked"

(* Simulated-time stopwatch around a thunk running in the current
   simulated thread. *)
let timed engine f =
  let t0 = Engine.now engine in
  let r = f () in
  (r, Engine.now engine -. t0)

(* Trace-derived stopwatch: wrap the thunk in a named span on the
   kernel's trace and report the span's duration. Numerically equal to
   [timed] (tracing charges no simulated time) but the measurement now
   lives in the trace buffer, linked to every fault/IPC span the phase
   caused — E10 and E13 reduce their tables from exactly these spans. *)
let spanned kernel label f =
  let tr = Kernel.trace kernel in
  let was = Trace.enabled tr in
  Trace.set_enabled tr true;
  let span = Trace.span_open tr ~subsystem:"bench" ~label in
  let r = f () in
  Trace.span_close tr ~subsystem:"bench" ~label span;
  Trace.set_enabled tr was;
  match Trace.find_span tr span with
  | Some sp -> (r, sp.Trace.sp_end -. sp.Trace.sp_start)
  | None -> failwith ("bench span evicted from trace buffer: " ^ label)

let ok_exn what = function
  | Ok v -> v
  | Error _ -> failwith ("unexpected failure: " ^ what)

let us v = Printf.sprintf "%.1f" v
let us0 v = Printf.sprintf "%.0f" v
let ratio a b = if b = 0.0 then "-" else Printf.sprintf "%.2fx" (a /. b)

type scale = Full | Small

type experiment = {
  id : string;  (** e.g. "E4" *)
  title : string;
  paper_claim : string;
  body : scale -> (string * float) list;
      (** the run's own metrics: [Full] is the run the tables, [--json]
          and the gate all read; [Small] is the smoke and bechamel size *)
  tables : (string * float) list -> Table.t list;
      (** renders the printed tables from [measure]'s pairs *)
}

(* One run of [e]: its own pairs, then the registry snapshots of every
   kernel it booted, summed pointwise, each key prefixed "reg.". *)
let measure e scale =
  collected := [];
  let own = e.body scale in
  own @ List.map (fun (k, v) -> ("reg." ^ k, v)) (Metrics.merge !collected)

let get pairs key =
  match List.assoc_opt key pairs with
  | Some v -> v
  | None -> failwith ("experiment emitted no " ^ key)

let geti pairs key = int_of_float (get pairs key)
let fi = float_of_int

(* The pairs whose key starts with [prefix], in emission order, with the
   prefix cut off: a sweep's points, whatever its size. *)
let with_prefix pairs prefix =
  let n = String.length prefix in
  List.filter_map
    (fun (k, v) ->
      if String.starts_with ~prefix k then Some (String.sub k n (String.length k - n), v)
      else None)
    pairs

(* The summed "ipc." registry keys of [kernels]: every task on a host
   shares its kernel's IPC node, so this is all of their traffic. *)
let ipc_counters kernels =
  with_prefix (Metrics.merge (List.map (fun k -> Metrics.snapshot (Kernel.metrics k)) kernels)) "ipc."

(* One row per data manager the run booted, from its "reg.pager.NAME."
   keys: every manager registers the same Pager_runtime stats block. *)
let pager_table ~title pairs =
  let stats = with_prefix pairs "reg.pager." in
  let split k = Scanf.sscanf k "%s@.%s" (fun name field -> (name, field)) in
  let names = List.sort_uniq compare (List.map (fun (k, _) -> fst (split k)) stats) in
  let row name = List.filter (fun (k, _) -> fst (split k) = name) stats in
  let fields = List.map (fun (k, _) -> snd (split k)) (row (List.hd names)) in
  let t = Table.create ~title ~columns:("manager" :: fields) in
  List.iter (fun name -> Table.row t (name :: List.map (fun (_, v) -> us0 v) (row name))) names;
  t
