(* The benchmark's side of every measurement. Workloads call into the
   library only through these wrappers, so each call is timed on the
   simulated clock from outside lib/, and each correctness check lands
   in one failure count. *)

open Mach

type t = {
  engine : Engine.t;
  trace : Trace.t;
  op : Lat.t;  (** one sample per workload op *)
  touch : Lat.t;  (** every one-word load or store the benchmark issues *)
  fork : Lat.t;
  exit : Lat.t;
  rpc_inline : Lat.t;
  rpc_ool : Lat.t;
  read_file : Lat.t;
  write_file : Lat.t;
  link : Lat.t;
  free_frames : unit -> int;  (** fewest free frames on any host right now *)
  mutable free_frames_min : int;
  mutable chain_depth_max : int;
  mutable failed_ops : int;
  mutable failed_checks : int;
  chunk_ops : int;  (** ops per host-time chunk *)
  chunk_cpu : Lat.t;  (** host CPU time at the end of each chunk *)
  mutable clients : int;  (** closed-loop clients still running *)
  mutable on_chunk : unit -> unit;  (** runs at the end of every chunk *)
  mutable on_finish : unit -> unit;  (** runs when the last client finishes *)
}

(* Host CPU seconds of this process (user + system). *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Set-up and warm-up pass the defaults: no sizing, no host-time chunks,
   no free-frame probe. *)
let create ?(free_frames = fun () -> max_int) ?(ops = 0) ?(touches = 0) ?(chunk_ops = max_int)
    engine trace =
  {
    engine;
    trace;
    op = Lat.create ops;
    touch = Lat.create touches;
    fork = Lat.create 0;
    exit = Lat.create 0;
    rpc_inline = Lat.create 0;
    rpc_ool = Lat.create 0;
    read_file = Lat.create 0;
    write_file = Lat.create 0;
    link = Lat.create 0;
    free_frames;
    free_frames_min = max_int;
    chain_depth_max = 0;
    failed_ops = 0;
    failed_checks = 0;
    chunk_ops = max 1 chunk_ops;
    chunk_cpu = Lat.create ((ops / max 1 chunk_ops) + 1);
    clients = 0;
    on_chunk = ignore;
    on_finish = ignore;
  }

let timed m lat f =
  let t0 = Engine.now m.engine in
  let r = f () in
  Lat.add lat (Engine.now m.engine -. t0);
  r

(* One closed-loop operation; [f] says whether it succeeded. A "bench"
   span around it parents the fault spans it causes (a no-op when
   tracing is off, and free in simulated time either way). *)
let op m f =
  let span = Trace.span_open m.trace ~subsystem:"bench" ~label:"op" in
  let t0 = Engine.now m.engine in
  let ok = f () in
  Lat.add m.op (Engine.now m.engine -. t0);
  Trace.span_close m.trace ~subsystem:"bench" ~label:"op" span;
  if not ok then m.failed_ops <- m.failed_ops + 1;
  if Lat.count m.op mod m.chunk_ops = 0 then begin
    Lat.add m.chunk_cpu (cpu ());
    m.on_chunk ()
  end;
  let free = m.free_frames () in
  if free < m.free_frames_min then m.free_frames_min <- free

let failures m = m.failed_ops + m.failed_checks

let check m ok what =
  if not ok then begin
    m.failed_checks <- m.failed_checks + 1;
    if m.failed_checks <= 10 then prerr_endline ("check failed: " ^ what)
  end

let start_clients m n = m.clients <- n

let client_done m =
  m.clients <- m.clients - 1;
  if m.clients = 0 then m.on_finish ()

let touch ?policy m task addr ~write =
  Result.is_ok (timed m m.touch (fun () -> Syscalls.touch task ~addr ~write ?policy ()))

(* One-word loads and stores: a [touch] that also moves the data, so
   workloads can check what every access returns. *)
let word b = Int64.to_int (Bytes.get_int64_le b 0)

let word_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let load m task addr =
  match timed m m.touch (fun () -> Syscalls.read_bytes task ~addr ~len:8 ()) with
  | Ok b -> Some (word b)
  | Error _ -> None

let store m task addr v =
  Result.is_ok (timed m m.touch (fun () -> Syscalls.write_bytes task ~addr (word_bytes v) ()))
