module Engine = Mach_sim.Engine
module Semaphore = Mach_sim.Semaphore
module Counters = Mach_util.Metrics.Counters

let disk_counters = Counters.layout ()
let disk_stat = Counters.declare disk_counters
let s_reads = disk_stat "reads"
let s_writes = disk_stat "writes"
let s_blocks_read = disk_stat "blocks_read"
let s_blocks_written = disk_stat "blocks_written"
let s_bytes_read = disk_stat "bytes_read"
let s_bytes_written = disk_stat "bytes_written"

type t = {
  engine : Engine.t;
  name : string;
  block_size : int;
  store : bytes array;  (* [unwritten] until a block's first write *)
  seek_us : float;
  transfer_us_per_byte : float;
  arm : Semaphore.t; (* one transfer at a time; queued requests wait *)
  stats : Counters.t;
}

(* Blocks get their bytes on first write; until then they read as
   zeroes. A paging disk is mostly never touched, so allocating it
   eagerly would cost megabytes of host memory per host. *)
let unwritten = Bytes.empty

let create engine ~name ~blocks ~block_size ?(seek_us = 20_000.0) ?(transfer_us_per_byte = 1.0) () =
  if blocks <= 0 || block_size <= 0 then invalid_arg "Disk.create: bad geometry";
  {
    engine;
    name;
    block_size;
    store = Array.make blocks unwritten;
    seek_us;
    transfer_us_per_byte;
    arm = Semaphore.create 1;
    stats = Counters.create disk_counters;
  }

let name t = t.name
let blocks t = Array.length t.store
let block_size t = t.block_size

let reattach t engine =
  { t with engine; arm = Semaphore.create 1; stats = Counters.create disk_counters }

let check t block =
  if block < 0 || block >= Array.length t.store then
    invalid_arg (Printf.sprintf "Disk %s: block %d out of range" t.name block)

(* A [what] ("read" or "write") of [len] bytes at [block] covers
   consecutive blocks and must end on the disk. *)
let check_span t ~what block len =
  check t block;
  if block + ((len - 1) / t.block_size) >= Array.length t.store then
    invalid_arg (Printf.sprintf "Disk %s: %s past the last block" t.name what)

let transfer t nbytes =
  Semaphore.with_permit t.arm (fun () ->
      Engine.sleep (t.seek_us +. (float_of_int nbytes *. t.transfer_us_per_byte)))

let contents t block =
  let b = t.store.(block) in
  if b == unwritten then Bytes.make t.block_size '\000' else Bytes.copy b

(* Store [data] from the start of [block] on; a short final block keeps
   its tail. *)
let store t block data =
  let bs = t.block_size in
  let len = Bytes.length data in
  let i = ref 0 in
  while !i * bs < len do
    let b = block + !i in
    if t.store.(b) == unwritten then t.store.(b) <- Bytes.make bs '\000';
    Bytes.blit data (!i * bs) t.store.(b) 0 (min bs (len - (!i * bs)));
    incr i
  done

let read_blocks t ~block ~count =
  if count < 1 then invalid_arg (Printf.sprintf "Disk %s: read of %d blocks" t.name count);
  let len = count * t.block_size in
  check_span t ~what:"read" block len;
  transfer t len;
  Counters.incr t.stats s_reads;
  Counters.add t.stats s_blocks_read count;
  Counters.add t.stats s_bytes_read len;
  let out = Bytes.make len '\000' in
  for i = 0 to count - 1 do
    let b = t.store.(block + i) in
    if b != unwritten then Bytes.blit b 0 out (i * t.block_size) t.block_size
  done;
  out

let read t ~block = read_blocks t ~block ~count:1

let write t ~block data =
  let len = Bytes.length data in
  check_span t ~what:"write" block len;
  transfer t len;
  Counters.incr t.stats s_writes;
  Counters.add t.stats s_blocks_written ((len + t.block_size - 1) / t.block_size);
  Counters.add t.stats s_bytes_written len;
  store t block data

let read_raw t ~block =
  check t block;
  contents t block

let write_raw t ~block data =
  check_span t ~what:"write" block (Bytes.length data);
  store t block data

let stats t = t.stats
let bytes_read t = Counters.get t.stats s_bytes_read
let bytes_written t = Counters.get t.stats s_bytes_written
let ops t = Counters.get t.stats s_reads + Counters.get t.stats s_writes
let reset_stats t = Counters.reset t.stats
