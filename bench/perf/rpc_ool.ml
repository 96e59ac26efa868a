(* rpc_ool: closed-loop msg_rpc between client/server pairs.

   Four pairs share two CPUs. Each RPC carries 64 B inline; every 8th
   instead also carries a 16-page out-of-line region, of which the
   client rewrites one page just before the send. The server maps the
   region, reads the rewritten page, deallocates it and replies with 8 B.
   One op is one RPC (for an out-of-line RPC, the page rewrite too).

   Correctness: the server checks every inline payload against the
   seeded pool it was drawn from and checks that the rewritten page of
   every region holds the sequence number the client stored there; the
   client checks that the reply echoes its sequence number. *)

open Mach
module Rng = Mach_util.Rng

let page = 4096
let pairs = 4
let rpcs_per_second = 35_000  (* per client *)
let ool_every = 8
let ool_pages = 16
let inline_bytes = 64
let pool_size = 256
let warm_rpcs = 1000
let id_inline = 1
let id_ool = 2

let config =
  { Kernel.default_config with Kernel.params = { Machine.multimax with Machine.cpus = 2 } }

type pair = {
  client : Ktypes.task;
  server : Ktypes.task;
  svc_name : Port_space.name;
  svc : Message.port;
  reply : Message.port;
  region : int;
  pool : bytes array;  (** inline payloads; bytes 0-15 are overwritten per RPC *)
  pages : int array;  (** the page rewritten before the k-th out-of-line RPC *)
}

let is_ool i = i mod ool_every = ool_every - 1

(* Inline payload of RPC [i]: sequence number, rewritten page, then the
   pool entry's seeded bytes. *)
let payload p i ~pg =
  let b = Bytes.copy p.pool.(i mod pool_size) in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.set_int64_le b 8 (Int64.of_int pg);
  b

let serve m p ~count =
  for _ = 1 to count do
    match Syscalls.msg_receive p.server ~from:(`Port p.svc_name) () with
    | Error _ -> Meter.check m false "rpc_ool: server receive failed"
    | Ok msg -> (
      match msg.Message.body with
      | Message.Data data :: _ when Bytes.length data = inline_bytes -> (
        let i = Meter.word data in
        let pg = Int64.to_int (Bytes.get_int64_le data 8) in
        let expected = p.pool.(i mod pool_size) in
        let same = ref true in
        for j = 16 to inline_bytes - 1 do
          if Bytes.get data j <> Bytes.get expected j then same := false
        done;
        Meter.check m !same "rpc_ool: inline payload differs from the client's";
        if msg.Message.header.Message.msg_id = id_ool then begin
          match Syscalls.map_ool p.server msg with
          | [ (addr, size) ] ->
            Meter.check m
              (Meter.load m p.server (addr + (pg * page)) = Some i)
              "rpc_ool: out-of-line page differs from what the client wrote";
            Syscalls.vm_deallocate p.server ~addr ~size
          | _ -> Meter.check m false "rpc_ool: out-of-line region missing"
        end;
        match msg.Message.header.Message.reply with
        | Some reply ->
          Meter.check m
            (Result.is_ok
               (Syscalls.msg_send p.server
                  (Message.make ~dest:reply [ Message.Data (Meter.word_bytes i) ])))
            "rpc_ool: reply send failed"
        | None -> Meter.check m false "rpc_ool: request without reply port")
      | _ -> Meter.check m false "rpc_ool: malformed request")
  done

let call m p i =
  Meter.op m (fun () ->
      let ool = is_ool i in
      let pg = if ool then p.pages.(i / ool_every) else 0 in
      let stored = (not ool) || Meter.store m p.client (p.region + (pg * page)) i in
      let body =
        Message.Data (payload p i ~pg)
        :: (if ool then [ Syscalls.ool_region p.client ~addr:p.region ~size:(ool_pages * page) ]
            else [])
      in
      let msg =
        Message.make ~dest:p.svc ~reply:p.reply ~msg_id:(if ool then id_ool else id_inline) body
      in
      match
        Meter.timed m
          (if ool then m.Meter.rpc_ool else m.Meter.rpc_inline)
          (fun () -> Syscalls.msg_rpc p.client msg ())
      with
      | Ok reply ->
        Meter.check m
          (match reply.Message.body with
          | Message.Data b :: _ -> Bytes.length b = 8 && Meter.word b = i
          | _ -> false)
          "rpc_ool: reply does not echo the request";
        stored
      | Error _ -> false)

(* Start one server and one client thread per pair for RPCs
   [first, first + count). *)
let start m pairs_ ~tag ~first ~count ~finished =
  Array.iteri
    (fun k p ->
      ignore
        (Thread.spawn p.server ~name:(Printf.sprintf "s%d.%s" k tag) (fun () ->
             serve m p ~count));
      ignore
        (Thread.spawn p.client ~name:(Printf.sprintf "c%d.%s" k tag) (fun () ->
             for i = first to first + count - 1 do
               call m p i
             done;
             finished ())))
    pairs_

let setup ~seed ~seconds =
  let rpcs = Workload.sized seconds rpcs_per_second in
  let sys = Kernel.create_system ~config () in
  let engine = sys.Kernel.engine and kernel = sys.Kernel.kernel in
  let rng = Rng.create seed in
  let total = warm_rpcs + rpcs in
  let inputs =
    Array.init pairs (fun _ ->
        let r = Rng.split rng in
        let pool =
          Array.init pool_size (fun _ ->
              Bytes.init inline_bytes (fun _ -> Char.chr (Rng.int r 256)))
        in
        (pool, Array.init ((total / ool_every) + 1) (fun _ -> Rng.int r ool_pages)))
  in
  let ps =
    Workload.in_engine engine "rpc_ool.setup" (fun () ->
        Array.mapi
          (fun k (pool, pages) ->
            let server = Task.create kernel ~name:(Printf.sprintf "s%d" k) () in
            let client = Task.create kernel ~name:(Printf.sprintf "c%d" k) () in
            let svc_name = Syscalls.port_allocate server () in
            let reply_name = Syscalls.port_allocate client () in
            let region = Syscalls.vm_allocate client ~size:(ool_pages * page) ~anywhere:true () in
            for pg = 0 to ool_pages - 1 do
              Workload.ok_exn "populate"
                (Syscalls.write_bytes client ~addr:(region + (pg * page))
                   (Meter.word_bytes (-1)) ())
            done;
            {
              client;
              server;
              svc_name;
              svc = Port_space.lookup_exn (Task.space server) svc_name;
              reply = Port_space.lookup_exn (Task.space client) reply_name;
              region;
              pool;
              pages;
            })
          inputs)
  in
  let warm = Meter.create engine (Kernel.trace kernel) in
  start warm ps ~tag:"warm" ~first:0 ~count:warm_rpcs ~finished:ignore;
  Engine.run engine;
  if Meter.failures warm > 0 then failwith "rpc_ool: warm-up failed";
  let run m =
    Meter.start_clients m pairs;
    start m ps ~tag:"run" ~first:warm_rpcs ~count:rpcs ~finished:(fun () -> Meter.client_done m)
  in
  {
    Workload.engine;
    kernels = [| kernel |];
    fs = None;
    fs_disk = None;
    netmem = None;
    ops = pairs * rpcs;
    touches = 2 * pairs * ((rpcs / ool_every) + 1);
    chunk_ops = pairs * rpcs / 40;
    run;
    verify = ignore;
  }

let workload =
  {
    Workload.name = "rpc_ool";
    why =
      "closed-loop msg_rpc, 4 client/server pairs on 2 CPUs, every 8th RPC with a 16-page \
       out-of-line region: loads Transport, ports and handoff, almost no faults";
    setup;
  }
