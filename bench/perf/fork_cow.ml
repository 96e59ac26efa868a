(* fork_cow: fork/exit generations over resident anonymous memory.

   Four workers each own a 256-page region. Every cycle a worker forks a
   child; the child writes 32 random pages while the parent touches 128
   random pages (a quarter of them writes); then the child exits. One op
   is one one-word access. The regions fit in memory on purpose: under
   paging pressure the live shadow chain grows by one per cycle and the
   paging disk fills within a few dozen cycles (see README.md).

   Correctness: the parent keeps a shadow copy of the word it last
   stored in each page, and every parent load must return exactly that
   word — a child's marker leaking through (broken COW isolation) or a
   lost store fails the check. *)

open Mach
module Rng = Mach_util.Rng

let page = 4096
let workers = 4
let region_pages = 256
let child_writes = 32
let parent_touches = 128
let write_percent = 25
let cycles_per_second = 185  (* per worker *)
let warm_cycles = 4

let config =
  {
    Kernel.default_config with
    Kernel.params = { Machine.multimax with Machine.cpus = 4 };
    phys_frames = 4096;
  }

type worker = {
  task : Ktypes.task;
  region : int;
  shadow : int array;  (** the word the parent last stored in each page *)
  child_pages : int array;  (** [child_writes] pages per cycle *)
  parent_ops : int array;  (** [parent_touches] per cycle: page * 2 + is_write *)
}

(* Stored words carry who wrote them in the low bits: 1 parent, 2
   child, 3 set-up — a parent load that returns a 2 is a COW leak. *)
let parent_word c i = ((c + 1) lsl 24) lor (i lsl 2) lor 1
let child_word c i = ((c + 1) lsl 24) lor (i lsl 2) lor 2
let initial_word p = (p lsl 2) lor 3

let generate rng ~cycles =
  let child_pages = Array.init (cycles * child_writes) (fun _ -> Rng.int rng region_pages) in
  let parent_ops =
    Array.init (cycles * parent_touches) (fun _ ->
        let p = Rng.int rng region_pages in
        (p * 2) + if Rng.int rng 100 < write_percent then 1 else 0)
  in
  (child_pages, parent_ops)

(* Deepest shadow chain under any of the task's entries. *)
let chain_depth task =
  List.fold_left
    (fun acc e ->
      match e.Vm_map.backing with
      | Vm_map.Direct d -> max acc (Vm_object.chain_depth d.Vm_map.d_obj)
      | Vm_map.Shared _ -> acc)
    0
    (Vm_map.entries (Task.map task))

let cycle m kernel w c =
  let child =
    Meter.timed m m.Meter.fork (fun () ->
        Task.create kernel ~parent:w.task ~name:(Printf.sprintf "%s.c%d" (Task.name w.task) c) ())
  in
  let child_done = Ivar.create () in
  ignore
    (Thread.spawn child ~name:(Task.name child ^ ".main") (fun () ->
         for i = 0 to child_writes - 1 do
           let p = w.child_pages.((c * child_writes) + i) in
           Meter.op m (fun () -> Meter.store m child (w.region + (p * page)) (child_word c i))
         done;
         Ivar.fill child_done ()));
  for i = 0 to parent_touches - 1 do
    let code = w.parent_ops.((c * parent_touches) + i) in
    let p = code lsr 1 in
    let addr = w.region + (p * page) in
    if code land 1 = 1 then begin
      let v = parent_word c i in
      w.shadow.(p) <- v;
      Meter.op m (fun () -> Meter.store m w.task addr v)
    end
    else
      Meter.op m (fun () ->
          match Meter.load m w.task addr with
          | Some v ->
            Meter.check m (v = w.shadow.(p)) "fork_cow: parent load differs from its last store";
            true
          | None -> false)
  done;
  Ivar.read child_done;
  Meter.timed m m.Meter.exit (fun () -> Task.terminate child);
  m.Meter.chain_depth_max <- max m.Meter.chain_depth_max (chain_depth w.task)

let run_cycles m kernel w ~first ~count =
  for c = first to first + count - 1 do
    cycle m kernel w c
  done

let setup ~seed ~seconds =
  let cycles = Workload.sized seconds cycles_per_second in
  let sys = Kernel.create_system ~config () in
  let engine = sys.Kernel.engine and kernel = sys.Kernel.kernel in
  let rng = Rng.create seed in
  let inputs =
    Array.init workers (fun _ -> generate (Rng.split rng) ~cycles:(warm_cycles + cycles))
  in
  let ws =
    Workload.in_engine engine "fork_cow.setup" (fun () ->
        Array.mapi
          (fun i (child_pages, parent_ops) ->
            let task = Task.create kernel ~name:(Printf.sprintf "w%d" i) () in
            let region = Syscalls.vm_allocate task ~size:(region_pages * page) ~anywhere:true () in
            for p = 0 to region_pages - 1 do
              Workload.ok_exn "populate"
                (Syscalls.write_bytes task ~addr:(region + (p * page))
                   (Meter.word_bytes (initial_word p)) ())
            done;
            let shadow = Array.init region_pages initial_word in
            { task; region; shadow; child_pages; parent_ops })
          inputs)
  in
  let warm = Meter.create engine (Kernel.trace kernel) in
  Array.iter
    (fun w ->
      ignore
        (Thread.spawn w.task ~name:(Task.name w.task ^ ".warm") (fun () ->
             run_cycles warm kernel w ~first:0 ~count:warm_cycles)))
    ws;
  Engine.run engine;
  if Meter.failures warm > 0 then failwith "fork_cow: warm-up failed";
  let run m =
    Meter.start_clients m workers;
    Array.iter
      (fun w ->
        ignore
          (Thread.spawn w.task ~name:(Task.name w.task ^ ".run") (fun () ->
               run_cycles m kernel w ~first:warm_cycles ~count:cycles;
               Meter.client_done m)))
      ws
  in
  (* Every page once more, against the shadow. *)
  let verify m =
    Array.iter
      (fun w ->
        ignore
          (Thread.spawn w.task ~name:(Task.name w.task ^ ".verify") (fun () ->
               for p = 0 to region_pages - 1 do
                 match Syscalls.read_bytes w.task ~addr:(w.region + (p * page)) ~len:8 () with
                 | Ok b -> Meter.check m (Meter.word b = w.shadow.(p)) "fork_cow: final sweep"
                 | Error _ -> Meter.check m false "fork_cow: final sweep load failed"
               done)))
      ws
  in
  let ops = workers * cycles * (child_writes + parent_touches) in
  {
    Workload.engine;
    kernels = [| kernel |];
    fs = None;
    fs_disk = None;
    netmem = None;
    ops;
    touches = ops;
    chunk_ops = ops / 40;
    run;
    verify;
  }

let workload =
  {
    Workload.name = "fork_cow";
    why =
      "fork/exit generations over resident anonymous memory on 4 CPUs: loads Fault, the copy \
       engine, Vm_map fork/exit and CPU contention, with no IPC and no disk";
    setup;
  }
