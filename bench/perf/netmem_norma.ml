(* netmem_norma: consistent network shared memory on a NORMA cluster.

   Three HyperCube hosts (2 CPUs each, 300 us wire) share a 64-page
   Netmem region served from host 0. One client per host issues ops of
   8 accesses drawn from Access_patterns.working_set: a quarter of the
   pages take 80 % of the accesses and 10 % of accesses are writes. The
   fabric is lossless (the harness clears MACH_CHAOS).

   Accesses are touches: a load or store that moves data could read a
   frame a concurrent flush has just freed (README.md, finding 5).
   Correctness: the region starts with seeded contents, and after the
   run every host reads every page in turn; each must see the seeded
   bytes, so the hosts agree with each other and with
   Netmem.read_authoritative after every invalidation and write-back. *)

open Mach
module Rng = Mach_util.Rng
module Netmem = Mach_pagers.Netmem
module Access_patterns = Mach_workloads.Access_patterns

let page = 4096
let hosts = 3
let region_pages = 64
let ops_per_second = 4_500  (* per client *)
let accesses_per_op = 8
let warm_ops = 16

(* Generous: a coherence round trip waits behind other hosts' grants. *)
let policy = Fault.Abort_after 10_000_000.0

let config =
  { Kernel.default_config with Kernel.params = { Machine.hypercube with Machine.cpus = 2 } }

type client = {
  host : int;
  task : Ktypes.task;
  base : int;
  accesses : int array;  (** page * 2 + is_write, [accesses_per_op] per op *)
}

(* Bytes checked at the start of every page. *)
let checked = 64

let access m c k =
  let code = c.accesses.(k) in
  Meter.touch ~policy m c.task (c.base + ((code lsr 1) * page)) ~write:(code land 1 = 1)

let run_ops m c ~first ~count =
  for o = first to first + count - 1 do
    Meter.op m (fun () ->
        let ok = ref true in
        for a = 0 to accesses_per_op - 1 do
          if not (access m c ((o * accesses_per_op) + a)) then ok := false
        done;
        !ok)
  done

let setup ~seed ~seconds =
  let n = Workload.sized seconds ops_per_second in
  let cluster = Kernel.create_cluster ~hosts ~config () in
  let engine = cluster.Kernel.c_engine and kernels = cluster.Kernel.c_kernels in
  let rng = Rng.create seed in
  let total = warm_ops + n in
  let inputs =
    Array.init hosts (fun _ ->
        let trace =
          Access_patterns.working_set ~pages:region_pages ~ops:(total * accesses_per_op)
            ~write_ratio:0.1 ~hot_fraction:0.25 ~hot_bias:0.8 (Rng.split rng)
        in
        Array.of_list
          (List.map
             (fun a ->
               (a.Access_patterns.ap_page * 2) + if a.Access_patterns.ap_write then 1 else 0)
             trace))
  in
  let contents = Bytes.init (region_pages * page) (fun _ -> Char.chr (Rng.int rng 256)) in
  let nm, region =
    Workload.in_engine engine "netmem_norma.setup" (fun () ->
        let nm = Netmem.start kernels.(0) () in
        let region = Netmem.create_region nm ~size:(region_pages * page) in
        Netmem.write_initial nm ~region ~offset:0 contents;
        (nm, region))
  in
  let cs =
    Workload.in_engine engine "netmem_norma.attach" (fun () ->
        Array.mapi
          (fun host accesses ->
            let task = Task.create kernels.(host) ~name:(Printf.sprintf "h%d" host) () in
            let base =
              Syscalls.vm_allocate_with_pager task ~size:(region_pages * page) ~anywhere:true
                ~memory_object:region ~offset:0 ()
            in
            { host; task; base; accesses })
          inputs)
  in
  let warm = Meter.create engine (Kernel.trace kernels.(0)) in
  Array.iter
    (fun c ->
      ignore
        (Thread.spawn c.task ~name:(Printf.sprintf "h%d.warm" c.host) (fun () ->
             run_ops warm c ~first:0 ~count:warm_ops)))
    cs;
  Engine.run engine;
  if Meter.failures warm > 0 then failwith "netmem_norma: warm-up failed";
  let run m =
    Meter.start_clients m hosts;
    Array.iter
      (fun c ->
        ignore
          (Thread.spawn c.task ~name:(Printf.sprintf "h%d.run" c.host) (fun () ->
               run_ops m c ~first:warm_ops ~count:n;
               Meter.client_done m)))
      cs
  in
  let expected pg = Bytes.sub contents (pg * page) checked in
  (* One host at a time, so no flush can race a host's own loads. *)
  let verify m =
    Engine.spawn engine ~name:"netmem_norma.verify" (fun () ->
        Array.iter
          (fun c ->
            let swept = Ivar.create () in
            ignore
              (Thread.spawn c.task ~name:(Printf.sprintf "h%d.verify" c.host) (fun () ->
                   for pg = 0 to region_pages - 1 do
                     Meter.check m
                       (match
                          Syscalls.read_bytes c.task ~addr:(c.base + (pg * page)) ~len:checked
                            ~policy ()
                        with
                       | Ok b -> Bytes.equal b (expected pg)
                       | Error _ -> false)
                       "netmem_norma: a host reads other bytes than the region holds"
                   done;
                   Ivar.fill swept ()));
            Ivar.read swept)
          cs;
        for pg = 0 to region_pages - 1 do
          Meter.check m
            (Bytes.equal
               (Netmem.read_authoritative nm ~region ~offset:(pg * page) ~len:checked)
               (expected pg))
            "netmem_norma: server copy differs from the hosts'"
        done)
  in
  {
    Workload.engine;
    kernels;
    fs = None;
    fs_disk = None;
    netmem = Some nm;
    ops = hosts * n;
    touches = hosts * n * accesses_per_op;
    chunk_ops = hosts * n / 40;
    run;
    verify;
  }

let workload =
  {
    Workload.name = "netmem_norma";
    why =
      "3 HyperCube hosts share a 64-page Netmem region with hot/cold accesses and 10% writes: \
       the only workload that loads Net, Context and coherence";
    setup;
  }
