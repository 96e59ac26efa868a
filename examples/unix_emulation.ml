(* §8.1: emulating the UNIX filesystem interface outside the kernel,
   using the Mach_unixemu library: open() maps the file via the
   filesystem server; read()/write()/lseek() operate on virtual memory;
   close() stores dirty files back.

   Run with: dune exec examples/unix_emulation.exe *)

open Mach
module Minimal_fs = Mach_pagers.Minimal_fs
module Unix_emu = Mach_unixemu.Unix_emu

let page = 4096

let () =
  let sys = Kernel.create_system () in
  Engine.spawn sys.Kernel.engine ~name:"setup" (fun () ->
      let disk = Disk.create sys.Kernel.engine ~name:"fsdisk" ~blocks:2048 ~block_size:page () in
      let fsrv = Minimal_fs.start sys.Kernel.kernel ~disk ~format:true () in
      let server = Minimal_fs.service_port fsrv in
      let app = Task.create sys.Kernel.kernel ~name:"unix-app" () in
      ignore
        (Thread.spawn app ~name:"unix-app.main" (fun () ->
             let io = Unix_emu.init app ~server in
             (* Classic open/write/close, then open/lseek/read. *)
             let fd = Unix_emu.openf io ~create:true "notes.txt" in
             ignore (Unix_emu.write io fd (Bytes.of_string "The quick brown fox jumps over the lazy dog.\n"));
             ignore (Unix_emu.write io fd (Bytes.of_string "Second line written through mapped memory.\n"));
             Unix_emu.close io fd;
             Printf.printf "wrote notes.txt via emulated write()\n";
             let fd = Unix_emu.openf io "notes.txt" in
             ignore (Unix_emu.lseek io fd 4 `Set);
             Printf.printf "lseek(4); read(15) = %S\n" (Bytes.to_string (Unix_emu.read io fd 15));
             ignore (Unix_emu.lseek io fd 0 `Set);
             let all = Unix_emu.read io fd 4096 in
             Printf.printf "whole file (%d bytes, fstat says %d):\n%s" (Bytes.length all)
               (Unix_emu.fstat_size io fd) (Bytes.to_string all);
             (* dup shares the offset. *)
             let fd2 = Unix_emu.dup io fd in
             ignore (Unix_emu.lseek io fd (-44) `End);
             Printf.printf "dup'd descriptor reads: %S\n" (Bytes.to_string (Unix_emu.read io fd2 11));
             Unix_emu.close io fd;
             Unix_emu.close io fd2;
             let stats = Kernel.stats sys.Kernel.kernel in
             Printf.printf
               "no buffer cache involved: %d pageins via the external pager, %d disk ops\n"
               (Counters.get stats Vm_types.s_pageins) (Disk.ops disk))));
  Engine.run sys.Kernel.engine;
  print_endline "\nunix_emulation finished."
