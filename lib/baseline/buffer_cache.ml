module Disk = Mach_hw.Disk
module Dlist = Mach_util.Dlist

type buf = { block : int; data : bytes; mutable dirty : bool; mutable node : int Dlist.node option }

type t = {
  disk : Disk.t;
  capacity : int;
  table : (int, buf) Hashtbl.t;
  lru : int Dlist.t;  (* block numbers, LRU at front *)
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
}

let create ~disk ~buffers =
  if buffers <= 0 then invalid_arg "Buffer_cache.create: need at least one buffer";
  { disk; capacity = buffers; table = Hashtbl.create (2 * buffers); lru = Dlist.create ();
    hits = 0; misses = 0; writebacks = 0 }


let touch t buf =
  (match buf.node with
  | Some n when Dlist.attached n -> Dlist.remove t.lru n
  | Some _ | None -> ());
  let n = Dlist.node buf.block in
  buf.node <- Some n;
  Dlist.push_back t.lru n

let evict_one t =
  match Dlist.pop_front t.lru with
  | None -> ()
  | Some n -> (
    let block = Dlist.value n in
    match Hashtbl.find_opt t.table block with
    | None -> ()
    | Some buf ->
      if buf.dirty then begin
        t.writebacks <- t.writebacks + 1;
        Disk.write t.disk ~block buf.data
      end;
      Hashtbl.remove t.table block)

let make_room t = while Hashtbl.length t.table >= t.capacity do evict_one t done

let bread t ~block =
  match Hashtbl.find_opt t.table block with
  | Some buf ->
    t.hits <- t.hits + 1;
    touch t buf;
    buf.data
  | None ->
    t.misses <- t.misses + 1;
    make_room t;
    let data = Disk.read t.disk ~block in
    let buf = { block; data; dirty = false; node = None } in
    Hashtbl.replace t.table block buf;
    touch t buf;
    data

let bwrite t ~block data =
  match Hashtbl.find_opt t.table block with
  | Some buf ->
    Bytes.blit data 0 buf.data 0 (min (Bytes.length data) (Bytes.length buf.data));
    buf.dirty <- true;
    touch t buf
  | None ->
    make_room t;
    let full = Bytes.make (Disk.block_size t.disk) '\000' in
    Bytes.blit data 0 full 0 (min (Bytes.length data) (Bytes.length full));
    let buf = { block; data = full; dirty = true; node = None } in
    Hashtbl.replace t.table block buf;
    touch t buf

(* In block order, over a snapshot: each write blocks. *)
let sync t =
  Hashtbl.fold (fun _ buf acc -> if buf.dirty then buf :: acc else acc) t.table []
  |> List.sort (fun a b -> compare a.block b.block)
  |> List.iter (fun buf ->
         if buf.dirty then begin
           buf.dirty <- false;
           t.writebacks <- t.writebacks + 1;
           Disk.write t.disk ~block:buf.block buf.data
         end)

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0
