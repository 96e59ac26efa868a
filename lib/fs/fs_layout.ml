module Disk = Mach_hw.Disk
module Codec = Mach_util.Codec

exception Fs_error of string

let magic = 0x4D46_5331 (* "MFS1" *)
let name_max = 63
let direct_blocks = 20

type inode = {
  mutable used : bool;
  mutable name : string;
  mutable size : int;
  direct : int array;  (* data block numbers; 0 = unallocated *)
  mutable indirect : int;  (* block holding further pointers; 0 = none *)
}

type t = {
  disk : Disk.t;
  bs : int;
  inodes : inode array;
  itable_start : int;
  itable_blocks : int;
  mutable bitmap : Bytes.t;  (* one byte per data block: 0 free, 1 used *)
  bitmap_start : int;
  bitmap_blocks : int;
  data_start : int;
  by_name : (string, int) Hashtbl.t;
  ptrs_per_block : int;
}

let inode_size = 256
let disk t = t.disk
let block_size t = t.bs

let encode_inode ino =
  let e = Codec.Enc.create () in
  Codec.Enc.bool e ino.used;
  Codec.Enc.string e ino.name;
  Codec.Enc.int e ino.size;
  Array.iter (fun b -> Codec.Enc.u32 e b) ino.direct;
  Codec.Enc.u32 e ino.indirect;
  let b = Codec.Enc.to_bytes e in
  if Bytes.length b > inode_size then raise (Fs_error "inode overflow");
  let out = Bytes.make inode_size '\000' in
  Bytes.blit b 0 out 0 (Bytes.length b);
  out

let decode_inode b =
  let d = Codec.Dec.of_bytes b in
  let used = Codec.Dec.bool d in
  let name = Codec.Dec.string d in
  let size = Codec.Dec.int d in
  let direct = Array.init direct_blocks (fun _ -> Codec.Dec.u32 d) in
  let indirect = Codec.Dec.u32 d in
  { used; name; size; direct; indirect }

let geometry disk ~max_files =
  let bs = Disk.block_size disk in
  let inodes_per_block = bs / inode_size in
  let itable_blocks = (max_files + inodes_per_block - 1) / inodes_per_block in
  let itable_start = 1 in
  let bitmap_start = itable_start + itable_blocks in
  (* One byte per data block; sized for the remaining disk. *)
  let remaining = Disk.blocks disk - bitmap_start in
  let bitmap_blocks = max 1 (remaining / (bs + 1)) in
  let data_start = bitmap_start + bitmap_blocks in
  (bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start)

(* Superblock/metadata initialisation happens at boot, outside measured
   workloads, so it uses raw (uncharged) writes. *)
let flush_superblock t =
  let e = Codec.Enc.create () in
  Codec.Enc.u32 e magic;
  Codec.Enc.int e (Array.length t.inodes);
  Codec.Enc.int e t.itable_blocks;
  Codec.Enc.int e t.bitmap_blocks;
  Disk.write_raw t.disk ~block:0 (Codec.Enc.to_bytes e)

(* Metadata write-through is uncharged (modelled as asynchronous,
   batched metadata I/O): both the Mach server and the UNIX baseline
   use this layer, so experiments compare data movement, not inode
   bookkeeping. *)
let flush_inode t idx =
  let bs = t.bs in
  let inodes_per_block = bs / inode_size in
  let block = t.itable_start + (idx / inodes_per_block) in
  let slot = idx mod inodes_per_block in
  (* Read-modify-write the metadata block without charging a read: the
     table is cached in memory. *)
  let raw = Disk.read_raw t.disk ~block in
  Bytes.blit (encode_inode t.inodes.(idx)) 0 raw (slot * inode_size) inode_size;
  Disk.write_raw t.disk ~block raw

let flush_bitmap_byte t data_block =
  let block = t.bitmap_start + (data_block / t.bs) in
  let raw = Disk.read_raw t.disk ~block in
  Bytes.set raw (data_block mod t.bs) (Bytes.get t.bitmap data_block);
  Disk.write_raw t.disk ~block raw

let data_block_count t = t.bitmap_blocks * t.bs

let alloc_block t =
  let n = min (data_block_count t) (Disk.blocks t.disk - t.data_start) in
  let rec find i = if i >= n then raise (Fs_error "disk full") else if Bytes.get t.bitmap i = '\000' then i else find (i + 1) in
  let i = find 0 in
  Bytes.set t.bitmap i '\001';
  flush_bitmap_byte t i;
  t.data_start + i

let free_block t blk =
  let i = blk - t.data_start in
  if i >= 0 && i < Bytes.length t.bitmap then begin
    Bytes.set t.bitmap i '\000';
    flush_bitmap_byte t i
  end

let format disk ~max_files =
  let bs, itable_blocks, itable_start, bitmap_start, bitmap_blocks, data_start =
    geometry disk ~max_files
  in
  let inodes_per_block = bs / inode_size in
  let t =
    {
      disk;
      bs;
      inodes =
        Array.init (itable_blocks * inodes_per_block) (fun _ ->
            { used = false; name = ""; size = 0; direct = Array.make direct_blocks 0; indirect = 0 });
      itable_start;
      itable_blocks;
      bitmap = Bytes.make (bitmap_blocks * bs) '\000';
      bitmap_start;
      bitmap_blocks;
      data_start;
      by_name = Hashtbl.create 64;
      ptrs_per_block = bs / 4;
    }
  in
  flush_superblock t;
  for b = 0 to itable_blocks - 1 do
    Disk.write_raw t.disk ~block:(itable_start + b) (Bytes.make bs '\000')
  done;
  for b = 0 to bitmap_blocks - 1 do
    Disk.write_raw t.disk ~block:(bitmap_start + b) (Bytes.make bs '\000')
  done;
  t

let mount disk =
  let sb = Disk.read_raw disk ~block:0 in
  let d = Codec.Dec.of_bytes sb in
  if Codec.Dec.u32 d <> magic then raise (Fs_error "bad magic: not a filesystem");
  let n_inodes = Codec.Dec.int d in
  let itable_blocks = Codec.Dec.int d in
  let bitmap_blocks = Codec.Dec.int d in
  let bs = Disk.block_size disk in
  let itable_start = 1 in
  let bitmap_start = itable_start + itable_blocks in
  let data_start = bitmap_start + bitmap_blocks in
  let inodes =
    Array.init n_inodes (fun idx ->
        let inodes_per_block = bs / inode_size in
        let raw = Disk.read_raw disk ~block:(itable_start + (idx / inodes_per_block)) in
        let slot = idx mod inodes_per_block in
        decode_inode (Bytes.sub raw (slot * inode_size) inode_size))
  in
  let bitmap = Bytes.create (bitmap_blocks * bs) in
  for b = 0 to bitmap_blocks - 1 do
    Bytes.blit (Disk.read_raw disk ~block:(bitmap_start + b)) 0 bitmap (b * bs) bs
  done;
  let t =
    {
      disk;
      bs;
      inodes;
      itable_start;
      itable_blocks;
      bitmap;
      bitmap_start;
      bitmap_blocks;
      data_start;
      by_name = Hashtbl.create 64;
      ptrs_per_block = bs / 4;
    }
  in
  Array.iteri (fun idx ino -> if ino.used then Hashtbl.replace t.by_name ino.name idx) t.inodes;
  t

let lookup t name = Hashtbl.find_opt t.by_name name
let exists t name = lookup t name <> None

let file_size t name =
  match lookup t name with Some idx -> Some t.inodes.(idx).size | None -> None

let list_files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.by_name [] |> List.sort String.compare

let create t name =
  if String.length name > name_max then raise (Fs_error "name too long");
  if not (exists t name) then begin
    let rec find i =
      if i >= Array.length t.inodes then raise (Fs_error "inode table full")
      else if not t.inodes.(i).used then i
      else find (i + 1)
    in
    let idx = find 0 in
    let ino = t.inodes.(idx) in
    ino.used <- true;
    ino.name <- name;
    ino.size <- 0;
    Array.fill ino.direct 0 direct_blocks 0;
    ino.indirect <- 0;
    Hashtbl.replace t.by_name name idx;
    flush_inode t idx
  end

(* The indirect block is an array of little-endian u32 block pointers. *)
let get_ptr raw i = Bytes.get_uint16_le raw (4 * i) lor (Bytes.get_uint16_le raw ((4 * i) + 2) lsl 16)

let set_ptr raw i p =
  Bytes.set_uint16_le raw (4 * i) (p land 0xffff);
  Bytes.set_uint16_le raw ((4 * i) + 2) ((p lsr 16) land 0xffff)

let indirect_raw t ino =
  if ino.indirect = 0 then Bytes.make t.bs '\000' else Disk.read_raw t.disk ~block:ino.indirect

let write_indirect t ino raw =
  if ino.indirect = 0 then ino.indirect <- alloc_block t;
  Disk.write t.disk ~block:ino.indirect raw

(* The disk block holding file block [index], or 0. *)
let block_of t ino index =
  if index < direct_blocks then ino.direct.(index)
  else
    let i = index - direct_blocks in
    if i >= t.ptrs_per_block then raise (Fs_error "file too large")
    else if ino.indirect = 0 then 0
    else get_ptr (Disk.read_raw t.disk ~block:ino.indirect) i

let ensure_block t idx ino index =
  let existing = block_of t ino index in
  if existing <> 0 then existing
  else begin
    let blk = alloc_block t in
    if index < direct_blocks then begin
      ino.direct.(index) <- blk;
      flush_inode t idx
    end
    else begin
      let raw = indirect_raw t ino in
      set_ptr raw (index - direct_blocks) blk;
      write_indirect t ino raw;
      flush_inode t idx
    end;
    blk
  end

(* Free every allocated block at file index [keep] or beyond and clear
   its pointer. The indirect block goes too once the file fits in the
   direct blocks; a stale indirect pointer would later hand a block that
   now belongs to another file back to this one. *)
let truncate_blocks t ino ~keep =
  for i = keep to direct_blocks - 1 do
    if ino.direct.(i) <> 0 then begin
      free_block t ino.direct.(i);
      ino.direct.(i) <- 0
    end
  done;
  if ino.indirect <> 0 then begin
    let raw = indirect_raw t ino in
    let changed = ref false in
    for i = max 0 (keep - direct_blocks) to t.ptrs_per_block - 1 do
      let p = get_ptr raw i in
      if p <> 0 then begin
        free_block t p;
        set_ptr raw i 0;
        changed := true
      end
    done;
    if keep <= direct_blocks then begin
      free_block t ino.indirect;
      ino.indirect <- 0
    end
    else if !changed then write_indirect t ino raw
  end

let file_disk_block t name ~index =
  match lookup t name with
  | None -> None
  | Some idx -> (
    match block_of t t.inodes.(idx) index with 0 -> None | blk -> Some blk)

let ensure_disk_block t name ~index =
  create t name;
  match lookup t name with
  | None -> assert false
  | Some idx -> ensure_block t idx t.inodes.(idx) index

let note_file_size t name size =
  match lookup t name with
  | None -> ()
  | Some idx ->
    let ino = t.inodes.(idx) in
    if size > ino.size then begin
      ino.size <- size;
      flush_inode t idx
    end

let read_block t name ~index =
  match lookup t name with
  | None -> None
  | Some idx ->
    let ino = t.inodes.(idx) in
    if index < 0 || index * t.bs >= ino.size then None
    else
      let blk = block_of t ino index in
      if blk = 0 then Some (Bytes.make t.bs '\000') else Some (Disk.read t.disk ~block:blk)

let write_block t name ~index data =
  (match lookup t name with None -> create t name | Some _ -> ());
  match lookup t name with
  | None -> assert false
  | Some idx ->
    let ino = t.inodes.(idx) in
    let blk = ensure_block t idx ino index in
    Disk.write t.disk ~block:blk data;
    let upto = (index * t.bs) + Bytes.length data in
    if upto > ino.size then begin
      ino.size <- upto;
      flush_inode t idx
    end

(* Store each maximal run of disk-contiguous blocks with one transfer:
   [blocks.(i)] receives [buf]'s i-th block-sized slice. *)
let write_runs t blocks buf =
  let n = Array.length blocks in
  let start = ref 0 in
  for i = 1 to n do
    if i = n || blocks.(i) <> blocks.(i - 1) + 1 then begin
      let pos = !start * t.bs in
      let len = min (Bytes.length buf) (i * t.bs) - pos in
      Disk.write t.disk ~block:blocks.(!start) ~pos ~len buf;
      start := i
    end
  done

(* The read-side mirror of [write_runs]: fetch file blocks stored at
   [blocks] (0 for a hole, which reads as zeroes without touching the
   disk) into one buffer, one transfer per maximal run of
   disk-contiguous blocks. *)
let read_runs t blocks =
  let n = Array.length blocks in
  (* [(i, k)]: file blocks [i, i + k) sit on consecutive disk blocks. *)
  let runs = ref [] and start = ref 0 in
  for i = 1 to n do
    if i = n || blocks.(i) <> blocks.(i - 1) + 1 then begin
      runs := (!start, i - !start) :: !runs;
      start := i
    end
  done;
  match !runs with
  | [ _ ] when blocks.(0) <> 0 -> Disk.read_blocks t.disk ~block:blocks.(0) ~count:n
  | runs ->
    let buf = Bytes.make (n * t.bs) '\000' in
    List.iter
      (fun (i, k) ->
        if blocks.(i) <> 0 then
          Bytes.blit (Disk.read_blocks t.disk ~block:blocks.(i) ~count:k) 0 buf (i * t.bs) (k * t.bs))
      (List.rev runs);
    buf

let write_range t name ~off data =
  if Bytes.length data > 0 then begin
    create t name;
    let idx = Hashtbl.find t.by_name name in
    let ino = t.inodes.(idx) in
    (* A write past the end also writes the gap, as zeroes, so bytes a
       shorter version of the file left in its last block never show. *)
    let lo = min off ino.size and hi = off + Bytes.length data in
    let first = lo / t.bs in
    let base = first * t.bs in
    let buf =
      if lo = off && lo = base then data
      else begin
        (* Start on a block boundary, merging over the stored head. *)
        let buf = Bytes.make (hi - base) '\000' in
        (match block_of t ino first with
        | blk when blk <> 0 && lo > base ->
          Bytes.blit (Disk.read t.disk ~block:blk) 0 buf 0 (lo - base)
        | _ -> ());
        Bytes.blit data 0 buf (off - base) (Bytes.length data);
        buf
      end
    in
    let nblocks = ((hi - 1) / t.bs) - first + 1 in
    write_runs t (Array.init nblocks (fun i -> ensure_block t idx ino (first + i))) buf;
    if hi > ino.size then begin
      ino.size <- hi;
      flush_inode t idx
    end
  end

let rec delete t name =
  match lookup t name with
  | None -> ()
  | Some idx ->
    let ino = t.inodes.(idx) in
    (* Free from the allocation pointers, not the recorded size: a
       failed whole-file write rolls back before the size is set. *)
    truncate_blocks t ino ~keep:0;
    ino.used <- false;
    ino.name <- "";
    ino.size <- 0;
    Hashtbl.remove t.by_name name;
    flush_inode t idx

and write_file t name data =
  (* Whole-file semantics: a failed write (disk full) must not leave
     half the disk consumed — the partial file is deleted and its
     blocks freed before the error propagates. *)
  try write_file_unchecked t name data
  with Fs_error _ as e ->
    delete t name;
    raise e

and write_file_unchecked t name data =
  create t name;
  match lookup t name with
  | None -> assert false
  | Some idx ->
    let ino = t.inodes.(idx) in
    let new_blocks = (Bytes.length data + t.bs - 1) / t.bs in
    truncate_blocks t ino ~keep:new_blocks;
    write_runs t (Array.init new_blocks (fun i -> ensure_block t idx ino i)) data;
    ino.size <- Bytes.length data;
    flush_inode t idx

let read_range t name ~off ~len =
  match lookup t name with
  | None -> None
  | Some idx ->
    let ino = t.inodes.(idx) in
    let len = min len (ino.size - off) in
    if len <= 0 then Some Bytes.empty
    else begin
      let first = off / t.bs in
      let last = (off + len - 1) / t.bs in
      let buf = read_runs t (Array.init (last - first + 1) (fun i -> block_of t ino (first + i))) in
      let pos = off - (first * t.bs) in
      Some (if pos = 0 && len = Bytes.length buf then buf else Bytes.sub buf pos len)
    end

let read_file t name =
  Option.bind (file_size t name) (fun size -> read_range t name ~off:0 ~len:size)
