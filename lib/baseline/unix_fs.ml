module Machine = Mach_hw.Machine
module Engine = Mach_sim.Engine
module Fs_layout = Mach_fs.Fs_layout

type t = {
  params : Machine.params;
  layout : Fs_layout.t;
  bcache : Buffer_cache.t;
  bs : int;
  copy_us_per_byte : float;
}

let create params ~disk ~cache_buffers ~format =
  let layout = if format then Fs_layout.format disk ~max_files:256 else Fs_layout.mount disk in
  let bs = Fs_layout.block_size layout in
  {
    params;
    layout;
    bcache = Buffer_cache.create ~disk ~buffers:cache_buffers;
    bs;
    copy_us_per_byte = params.Machine.page_copy_us /. float_of_int bs;
  }

let fs t = t.layout
let file_size t name = Fs_layout.file_size t.layout name
let sync t = Buffer_cache.sync t.bcache

let charge_copy t bytes =
  let us = float_of_int bytes *. t.copy_us_per_byte in
  if us > 0.0 then Engine.sleep us

let syscall_entry () = Engine.sleep 10.0

let read t name ~off ~len =
  syscall_entry ();
  match Fs_layout.file_size t.layout name with
  | None -> None
  | Some size ->
    if off >= size then Some Bytes.empty
    else begin
      let len = min len (size - off) in
      let out = Bytes.make len '\000' in
      let first = off / t.bs in
      let last = (off + len - 1) / t.bs in
      for i = first to last do
        let data =
          match Fs_layout.file_disk_block t.layout name ~index:i with
          | Some blk -> Buffer_cache.bread t.bcache ~block:blk
          | None -> Bytes.make t.bs '\000' (* hole *)
        in
        let lo = max off (i * t.bs) in
        let hi = min (off + len) ((i + 1) * t.bs) in
        Bytes.blit data (lo - (i * t.bs)) out (lo - off) (hi - lo)
      done;
      (* Kernel-to-user copy of the payload. *)
      charge_copy t len;
      Some out
    end

let write t name ~off data =
  syscall_entry ();
  let len = Bytes.length data in
  if len > 0 then begin
    (* User-to-kernel copy. *)
    charge_copy t len;
    let first = off / t.bs in
    let last = (off + len - 1) / t.bs in
    for i = first to last do
      let blk = Fs_layout.ensure_disk_block t.layout name ~index:i in
      let lo = max off (i * t.bs) in
      let hi = min (off + len) ((i + 1) * t.bs) in
      if hi - lo = t.bs then
        Buffer_cache.bwrite t.bcache ~block:blk (Bytes.sub data (lo - off) t.bs)
      else begin
        (* Partial block: read-modify-write through the cache. *)
        let cur = Bytes.copy (Buffer_cache.bread t.bcache ~block:blk) in
        Bytes.blit data (lo - off) cur (lo - (i * t.bs)) (hi - lo);
        Buffer_cache.bwrite t.bcache ~block:blk cur
      end
    done;
    Fs_layout.note_file_size t.layout name (off + len)
  end

let read_file t name =
  match Fs_layout.file_size t.layout name with
  | None -> None
  | Some size -> read t name ~off:0 ~len:size

let write_file t name data = write t name ~off:0 data
