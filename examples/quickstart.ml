(* Quickstart: boot a simulated Mach kernel, run the §4.1 filesystem
   scenario from the paper's own example code:

     fs_read_file("filename", &file_data, file_size);
     ... randomly change contents ...
     fs_write_file("filename", file_data, file_size/2);
     vm_deallocate(task_self(), file_data, file_size);

   Run with: dune exec examples/quickstart.exe *)

open Mach
module Minimal_fs = Mach_pagers.Minimal_fs
module Rng = Mach_util.Rng

let page = 4096

let () =
  let sys = Kernel.create_system () in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      (* A user-level filesystem server: the data manager for every
         file's memory object. *)
      let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:2048 ~block_size:page () in
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let app = Task.create sys.Kernel.kernel ~name:"app" () in
      ignore
        (Thread.spawn app ~name:"app.main" (fun () ->
             Printf.printf "[%8.3f ms] app task started\n" (Engine.now sys.Kernel.engine /. 1e3);
             (* Create a file. *)
             (match
                Minimal_fs.Client.write_file app ~server "filename"
                  (Bytes.of_string (String.concat "" (List.init 100 (fun i -> Printf.sprintf "line %02d of the original file contents\n" i))))
              with
             | Ok () -> ()
             | Error e -> failwith (Format.asprintf "write: %a" Minimal_fs.Client.pp_error e));
             (* fs_read_file: returns NEW virtual memory, mapped
                copy-on-write — faults are served by the fs server. *)
             let file_data, file_size =
               match Minimal_fs.Client.read_file app ~server "filename" with
               | Ok r -> r
               | Error e -> failwith (Format.asprintf "read: %a" Minimal_fs.Client.pp_error e)
             in
             Printf.printf "[%8.3f ms] fs_read_file mapped %d bytes at %#x\n"
               (Engine.now sys.Kernel.engine /. 1e3)
               file_size file_data;
             (* Randomly change contents: private copy-on-write pages;
                other tasks keep seeing the original. *)
             let rng = Rng.create 42 in
             for _ = 1 to 64 do
               let off = Rng.int rng file_size in
               match Syscalls.read_bytes app ~addr:(file_data + off) ~len:1 () with
               | Ok b ->
                 let c = (Bytes.get_uint8 b 0 + 1) land 0xff in
                 ignore (Syscalls.write_bytes app ~addr:(file_data + off) (Bytes.make 1 (Char.chr c)) ())
               | Error _ -> ()
             done;
             let stats = Kernel.stats sys.Kernel.kernel in
             Printf.printf "[%8.3f ms] scribbled on the mapping: %d faults so far (%d COW)\n"
               (Engine.now sys.Kernel.engine /. 1e3)
               (Counters.get stats Vm_types.s_faults) (Counters.get stats Vm_types.s_cow_faults);
             (* Write back some results. *)
             (match
                Syscalls.read_bytes app ~addr:file_data ~len:(file_size / 2) ()
              with
             | Ok half -> (
               match Minimal_fs.Client.write_file app ~server "filename" half with
               | Ok () ->
                 Printf.printf "[%8.3f ms] fs_write_file stored %d bytes back\n"
                   (Engine.now sys.Kernel.engine /. 1e3)
                   (file_size / 2)
               | Error e -> failwith (Format.asprintf "write-back: %a" Minimal_fs.Client.pp_error e))
             | Error _ -> failwith "read for write-back failed");
             (* Throw away the working copy. *)
             Syscalls.vm_deallocate app ~addr:file_data ~size:file_size;
             Printf.printf "[%8.3f ms] vm_deallocate done; disk did %d ops total\n"
               (Engine.now sys.Kernel.engine /. 1e3)
               (Disk.ops disk);
             let vs = Syscalls.vm_statistics app in
             Printf.printf "\nvm_statistics:\n";
             List.iter
               (fun (k, v) -> if v > 0 then Printf.printf "  %-24s %d\n" k v)
               (Counters.to_list vs.Syscalls.vs_stats))));
  Engine.run sys.Kernel.engine;
  print_endline "\nquickstart finished."
