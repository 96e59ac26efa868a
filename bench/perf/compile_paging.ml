(* compile_paging: the section 9 compilation workload under memory
   pressure.

   A 2-CPU machine with 1024 frames (4 MB) builds a Compile_sim project
   on Minimal_fs: 96 sources of about 12 KB and 32 headers of about
   16 KB, 8 headers per source. Each build is the compile (read a
   source and its headers, compute, write the object file) followed by
   a link that maps a 768-page image file and dirties every page of it.
   Reads cluster in through pager IPC; the dirtied image is laundered
   back to the file server with data_write. One op is one file read,
   file write or link.

   Correctness: every file read is compared with the bytes last written
   to that file (the seeded generator's output for sources and
   headers); at the end every file is read once more and every image
   page must hold the last build's stamp. *)

open Mach
module Rng = Mach_util.Rng
module Compile_sim = Mach_workloads.Compile_sim
module Minimal_fs = Mach_pagers.Minimal_fs

let page = 4096
let builds_per_second = 12
let image_pages = 768
let image = "image"

let config =
  {
    Kernel.default_config with
    Kernel.params = { Machine.multimax with Machine.cpus = 2 };
    phys_frames = 1024;
  }

type client = {
  task : Ktypes.task;
  server : Message.port;
  disk : Disk.t;
  expected : (string, bytes) Hashtbl.t;  (** what each file must read back as *)
}

let image_word build pg = (build lsl 20) lor pg

(* [count] files whose sizes are spread evenly over +-25 % of [bytes],
   dealt out in a seeded order. Every seed gets the same mix of sizes
   and moves only which file is which: with 32 headers, independently
   drawn sizes would move the median read latency by several percent
   from seed to seed. *)
let files rng ~name ~count ~bytes =
  let sizes =
    Array.init count (fun i -> bytes - (bytes / 4) + (i * (bytes / 2) / max 1 (count - 1)))
  in
  Rng.shuffle rng sizes;
  List.init count (fun i -> (name i, sizes.(i)))

let read_checked m c name =
  match
    Meter.timed m m.Meter.read_file (fun () ->
        Minimal_fs.Client.read_file c.task ~server:c.server name)
  with
  | Error _ -> None
  | Ok (addr, size) ->
    (* The compiler walks the text: every byte faults in through the
       mapping, as Compile_sim.mach_ops does. *)
    let data = Syscalls.read_bytes c.task ~addr ~len:size () in
    if size > 0 then Syscalls.vm_deallocate c.task ~addr ~size;
    (match data with
    | Ok b ->
      Meter.check m
        (match Hashtbl.find_opt c.expected name with Some e -> Bytes.equal e b | None -> false)
        "compile_paging: file read differs from its last write"
    | Error _ -> ());
    Result.to_option (Result.map Bytes.length data)

let ops m c =
  {
    Compile_sim.read_file =
      (fun name ->
        let size = ref 0 in
        Meter.op m (fun () ->
            match read_checked m c name with
            | Some n ->
              size := n;
              true
            | None -> false);
        !size);
    write_file =
      (fun name data ->
        Hashtbl.replace c.expected name data;
        Meter.op m (fun () ->
            Result.is_ok
              (Meter.timed m m.Meter.write_file (fun () ->
                   Minimal_fs.Client.write_file c.task ~server:c.server name data))));
    compute = (fun us -> Cpu.compute (Task.kernel c.task) us);
    io_ops = (fun () -> Disk.ops c.disk);
  }

let link m c ~build =
  Meter.op m (fun () ->
      Meter.timed m m.Meter.link (fun () ->
          match Minimal_fs.Client.map_file c.task ~server:c.server image with
          | Error _ -> false
          | Ok (addr, size) ->
            let ok = ref true in
            for pg = 0 to image_pages - 1 do
              if not (Meter.store m c.task (addr + (pg * page)) (image_word build pg)) then
                ok := false
            done;
            Syscalls.vm_deallocate c.task ~addr ~size;
            !ok))

let build m c proj ~build =
  Compile_sim.build (ops m c) proj;
  link m c ~build

let setup ~seed ~seconds =
  let n = Workload.sized seconds builds_per_second in
  let sys = Kernel.create_system ~config () in
  let engine = sys.Kernel.engine and kernel = sys.Kernel.kernel in
  let rng = Rng.create seed in
  let proj =
    {
      Compile_sim.sources =
        files rng ~name:(Printf.sprintf "src%03d.c") ~count:96 ~bytes:(12 * 1024);
      headers = files rng ~name:(Printf.sprintf "hdr%03d.h") ~count:32 ~bytes:(16 * 1024);
      headers_per_source = 8;
    }
  in
  let disk = Disk.create engine ~name:"fs-disk" ~blocks:4096 ~block_size:page () in
  let warm = Meter.create engine (Kernel.trace kernel) in
  let fs, c =
    Workload.in_engine engine "compile_paging.setup" (fun () ->
        let fs = Minimal_fs.start kernel ~disk ~format:true () in
        let task = Task.create kernel ~name:"cc" () in
        (fs, { task; server = Minimal_fs.service_port fs; disk; expected = Hashtbl.create 256 }))
  in
  (* Populate, create the image, and one cold build. *)
  ignore
    (Thread.spawn c.task ~name:"cc.setup" (fun () ->
         let o = ops warm c in
         Compile_sim.populate o (Rng.split rng) proj;
         o.Compile_sim.write_file image (Bytes.make (image_pages * page) '\000');
         build warm c proj ~build:0));
  Engine.run engine;
  if Meter.failures warm > 0 then failwith "compile_paging: warm-up failed";
  let run m =
    Meter.start_clients m 1;
    ignore
      (Thread.spawn c.task ~name:"cc.run" (fun () ->
           for b = 1 to n do
             build m c proj ~build:b
           done;
           Meter.client_done m))
  in
  let verify m =
    ignore
      (Thread.spawn c.task ~name:"cc.verify" (fun () ->
           Hashtbl.iter
             (fun name _ ->
               if name <> image then
                 Meter.check m (read_checked m c name <> None) "compile_paging: final read failed")
             c.expected;
           match Minimal_fs.Client.map_file c.task ~server:c.server image with
           | Error _ -> Meter.check m false "compile_paging: image map failed"
           | Ok (addr, size) ->
             for pg = 0 to image_pages - 1 do
               Meter.check m
                 (match Syscalls.read_bytes c.task ~addr:(addr + (pg * page)) ~len:8 () with
                 | Ok b -> Meter.word b = image_word n pg
                 | Error _ -> false)
                 "compile_paging: image page lost the last link's stamp"
             done;
             Syscalls.vm_deallocate c.task ~addr ~size))
  in
  let per_build =
    (List.length proj.Compile_sim.sources * (2 + proj.Compile_sim.headers_per_source)) + 1
  in
  {
    Workload.engine;
    kernels = [| kernel |];
    fs = Some fs;
    fs_disk = Some disk;
    netmem = None;
    ops = n * per_build;
    touches = n * image_pages;
    chunk_ops = per_build;
    run;
    verify;
  }

let workload =
  {
    Workload.name = "compile_paging";
    why =
      "the section 9 compile on Minimal_fs in 4 MB plus a link dirtying a 3 MB image: reads \
       cluster in over pager IPC, writes launder under memory pressure; the only disk workload";
    setup;
  }
