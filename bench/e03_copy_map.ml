(* E3 — the duality claim (§1, §2, §9): moving large message bodies by
   copy-on-write mapping instead of byte copying. Sweeps the message
   size and compares:
   - copy transfer (bytes physically copied at send);
   - mapped transfer, receiver never touches the data (pure transfer);
   - mapped transfer, receiver reads every page (lazy cost paid);
   - mapped transfer, receiver overwrites every page (COW worst case).

   The mapped path is the real vm_map_copyin/copyout pipeline: the
   kernel's IPC counters are sampled around each exchange, so the
   accounting table can show that a mapped send moves zero bytes and
   the pages the receiver touches arrive as lazy copy-out faults. *)

open Mach
open Common

let page = 4096

type mode = Copy | Map_lazy | Map_read | Map_write

let mode_name = function
  | Copy -> "copy"
  | Map_lazy -> "map (untouched)"
  | Map_read -> "map (read all)"
  | Map_write -> "map (write all)"

type accounting = {
  a_bytes_copied : int;  (** bytes physically copied at send *)
  a_copyins : int;
  a_lazy_faults : int;
}

(* One exchange: sender ships [size] bytes from [src_addr], receiver
   consumes per [mode], then acks. Returns simulated elapsed time plus
   the IPC-counter deltas over the exchange. *)
let exchange sys ~sender ~receiver ~recv_svc ~ack_name ~ack_port ~src_addr ~size ~mode =
  let engine = sys.Kernel.engine in
  let recv_port = Mach_ipc.Port_space.lookup_exn (Task.space receiver) recv_svc in
  let stats = (Kernel.kctx sys.Kernel.kernel).Kctx.node.Transport.node_stats in
  let copied0 = Counters.value stats "bytes_copied" in
  let copyins0 = Counters.get stats Transport.s_copyins in
  let faults0 = Counters.get stats Transport.s_lazy_copyout_faults in
  let (), elapsed =
    timed engine (fun () ->
        let finished = Ivar.create () in
        ignore
          (Thread.spawn receiver ~name:"e3.receiver" (fun () ->
               (match Syscalls.msg_receive receiver ~from:(`Port recv_svc) () with
               | Ok msg ->
                 List.iter
                   (fun (addr, sz) ->
                     (match mode with
                     | Copy | Map_lazy -> ()
                     | Map_read ->
                       let p = ref 0 in
                       while !p < sz do
                         ignore (Syscalls.touch receiver ~addr:(addr + !p) ~write:false ());
                         p := !p + page
                       done
                     | Map_write ->
                       let p = ref 0 in
                       while !p < sz do
                         ignore (Syscalls.touch receiver ~addr:(addr + !p) ~write:true ());
                         p := !p + page
                       done);
                     Syscalls.vm_deallocate receiver ~addr ~size:sz)
                   (Syscalls.map_ool receiver msg);
                 ignore (Syscalls.msg_send receiver (Message.make ~dest:ack_port []))
               | Error _ -> ());
               Ivar.fill finished ()));
        let body =
          match mode with
          | Copy ->
            [ Message.Ool { Message.ool_data = Bytes.create size; transfer = Message.Copy_transfer } ]
          | Map_lazy | Map_read | Map_write -> [ Syscalls.ool_region sender ~addr:src_addr ~size ]
        in
        (match Syscalls.msg_send sender (Message.make ~dest:recv_port body) with
        | Ok () -> ()
        | Error _ -> failwith "e3 send failed");
        Ivar.read finished;
        ignore (Syscalls.msg_receive sender ~from:(`Port ack_name) ()))
  in
  let acct =
    {
      a_bytes_copied = Counters.value stats "bytes_copied" - copied0;
      a_copyins = Counters.get stats Transport.s_copyins - copyins0;
      a_lazy_faults = Counters.get stats Transport.s_lazy_copyout_faults - faults0;
    }
  in
  (elapsed, acct)

let modes = [ Copy; Map_lazy; Map_read; Map_write ]
let mode_key = function
  | Copy -> "copy"
  | Map_lazy -> "map_untouched"
  | Map_read -> "map_read"
  | Map_write -> "map_write"

let body scale =
  let sizes =
    match scale with
    | Full -> [ 4 * 1024; 64 * 1024; 256 * 1024; 1024 * 1024; 4 * 1024 * 1024 ]
    | Small -> [ 4 * 1024; 64 * 1024 ]
  in
  let config = { Kernel.default_config with Kernel.phys_frames = 16384 } in
  let rows =
    run_system ~config (fun sys task ->
        let receiver = Task.create sys.Kernel.kernel ~name:"e3-recv" () in
        let recv_svc = Syscalls.port_allocate receiver ~backlog:4 () in
        let ack_name = Syscalls.port_allocate task ~backlog:4 () in
        let ack_port = Mach_ipc.Port_space.lookup_exn (Task.space task) ack_name in
        List.map
          (fun size ->
            (* The source region exists and is resident before the clock
               starts — we measure the transfer, not data creation. *)
            let src_addr = Syscalls.vm_allocate task ~size ~anywhere:true () in
            ignore (ok_exn "fill" (Syscalls.write_bytes task ~addr:src_addr (Bytes.create size) ()));
            let results =
              List.map
                (fun mode ->
                  ( mode,
                    exchange sys ~sender:task ~receiver ~recv_svc ~ack_name ~ack_port ~src_addr
                      ~size ~mode ))
                modes
            in
            Syscalls.vm_deallocate task ~addr:src_addr ~size;
            (size, results))
          sizes)
  in
  (* Where does mapping start to win? (With a 16-byte handle and O(pages)
     map ops it already wins at one page; the sweep makes the measured
     crossover explicit rather than asserted; -1 if copy never lost.) *)
  let crossover =
    List.find_opt
      (fun (_, results) -> fst (List.assoc Copy results) > fst (List.assoc Map_lazy results))
      rows
  in
  let _, largest = List.nth rows (List.length rows - 1) in
  List.concat_map
    (fun (size, results) ->
      let copy_us = fst (List.assoc Copy results) and lazy_us, acct = List.assoc Map_lazy results in
      List.map (fun (mode, (t, _)) -> (Printf.sprintf "%s_us_%d" (mode_key mode) size, t)) results
      @ [
          (Printf.sprintf "copy_over_map_%d" size, if lazy_us = 0.0 then 0.0 else copy_us /. lazy_us);
          (Printf.sprintf "map_send_bytes_copied_%d" size, fi acct.a_bytes_copied);
        ])
    rows
  @ [ ("crossover_bytes", match crossover with Some (size, _) -> fi size | None -> -1.0) ]
  (* Zero-copy accounting at the largest size: a mapped send moves no
     bytes (one copyin, handle in the message), and only the pages the
     receiver touches come back as lazy copy-out faults. *)
  @ List.concat_map
      (fun (mode, (_, a)) ->
        let k = mode_key mode in
        [
          (k ^ "_bytes_copied", fi a.a_bytes_copied);
          (k ^ "_copyins", fi a.a_copyins);
          (k ^ "_lazy_faults", fi a.a_lazy_faults);
        ])
      largest

let pp_size size =
  if size >= 1024 * 1024 then Printf.sprintf "%d MB" (size / 1024 / 1024)
  else Printf.sprintf "%d KB" (size / 1024)

let tables pairs =
  let t =
    Table.create
      ~title:"E3: large message transfer — physical copy vs copy-on-write mapping (Sections 1, 2, 9)"
      ~columns:
        [ "message size"; "copy us"; "map untouched us"; "map read-all us"; "map write-all us";
          "copy/map-untouched" ]
  in
  let sizes = List.map fst (with_prefix pairs "copy_us_") in
  List.iter
    (fun size ->
      let at key = get pairs (key ^ "_us_" ^ size) in
      Table.row t
        [
          pp_size (int_of_string size);
          us0 (at "copy");
          us0 (at "map_untouched");
          us0 (at "map_read");
          us0 (at "map_write");
          ratio (at "copy") (at "map_untouched");
        ])
    sizes;
  let crossover = geti pairs "crossover_bytes" in
  Table.row t
    [
      (if crossover < 0 then "no crossover in sweep"
       else Printf.sprintf "crossover at %s" (pp_size crossover));
      "-"; "-"; "-"; "-"; "-";
    ];
  let t2 =
    Table.create
      ~title:
        (Printf.sprintf "E3: zero-copy accounting (%s message)"
           (pp_size (int_of_string (List.nth sizes (List.length sizes - 1)))))
      ~columns:[ "mode"; "bytes copied at send"; "copyins"; "lazy copy-out faults" ]
  in
  List.iter
    (fun mode ->
      let at field = us0 (get pairs (mode_key mode ^ field)) in
      Table.row t2 [ mode_name mode; at "_bytes_copied"; at "_copyins"; at "_lazy_faults" ])
    modes;
  [ t; t2 ]

let experiment =
  {
    id = "E3";
    title = "Message copy vs map";
    paper_claim =
      "Mach uses memory-mapping techniques to make the passing of large messages more \
       efficient: mapped transfer costs one map operation per page instead of a physical copy, \
       so its advantage grows with message size; the price is deferred to the pages the \
       receiver actually touches.";
    body;
    tables;
  }
