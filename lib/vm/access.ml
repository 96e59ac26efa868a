module Prot = Mach_hw.Prot
module Pmap = Mach_hw.Pmap
module Phys_mem = Mach_hw.Phys_mem
module Machine = Mach_hw.Machine

type error = Bad_address of int | Access_denied of int | Manager_failed of int

let pp_error fmt = function
  | Bad_address a -> Format.fprintf fmt "bad address %#x" a
  | Access_denied a -> Format.fprintf fmt "access denied at %#x" a
  | Manager_failed a -> Format.fprintf fmt "data manager failed at %#x" a

(* Translate [addr] (faulting as needed) and apply [use] to the frame at
   the instant the translation is valid, before the access charge: that
   charge can yield to a manager flush that unmaps and frees the frame. *)
let access kctx map ~addr ~write ?policy use =
  match Vm_map.pmap map with
  | None -> invalid_arg "Access.touch: map has no pmap"
  | Some pm ->
    let ps = kctx.Kctx.page_size in
    let vpn = addr / ps in
    (* A real CPU refaults the instruction indefinitely; the cap is a
       livelock guard, generous enough for heavily contended shared
       memory (each retry implies another kernel made progress). *)
    let rec go tries =
      if tries > 512 then Error (Manager_failed addr)
      else
        match Pmap.access pm ~vpn ~write with
        | Ok frame ->
          let r = use frame in
          Kctx.charge kctx (Machine.access_us kctx.Kctx.params ~remote:false ~words:1);
          Ok r
        | Error (Pmap.Missing | Pmap.Protection) -> (
          match Fault.handle kctx map ~addr ~write ?policy () with
          | Fault.Done -> go (tries + 1)
          | Fault.Invalid_address -> Error (Bad_address addr)
          | Fault.Protection_failure -> Error (Access_denied addr)
          | Fault.Pager_error -> Error (Manager_failed addr))
    in
    go 0

let touch kctx map ~addr ~write ?policy () = access kctx map ~addr ~write ?policy Fun.id

let read_bytes kctx map ~addr ~len ?policy () =
  let ps = kctx.Kctx.page_size in
  let out = Bytes.create len in
  let rec go pos =
    if pos >= len then Ok out
    else
      let a = addr + pos in
      let in_page = min (len - pos) (ps - (a land (ps - 1))) in
      let blit frame =
        Phys_mem.read_into kctx.Kctx.mem frame ~off:(a land (ps - 1)) out ~pos ~len:in_page
      in
      match access kctx map ~addr:a ~write:false ?policy blit with
      | Error e -> Error e
      | Ok () ->
        (* Whole-chunk access time beyond the first word. *)
        Kctx.charge kctx
          (Machine.access_us kctx.Kctx.params ~remote:false ~words:(max 0 ((in_page / 8) - 1)));
        go (pos + in_page)
  in
  if len = 0 then Ok out else go 0

let write_bytes kctx map ~addr data ?policy () =
  let ps = kctx.Kctx.page_size in
  let len = Bytes.length data in
  let rec go pos =
    if pos >= len then Ok ()
    else
      let a = addr + pos in
      let in_page = min (len - pos) (ps - (a land (ps - 1))) in
      let store frame =
        Phys_mem.write kctx.Kctx.mem frame ~off:(a land (ps - 1)) ~pos ~len:in_page data
      in
      match access kctx map ~addr:a ~write:true ?policy store with
      | Error e -> Error e
      | Ok () ->
        Kctx.charge kctx
          (Machine.access_us kctx.Kctx.params ~remote:false ~words:(max 0 ((in_page / 8) - 1)));
        go (pos + in_page)
  in
  if len = 0 then Ok () else go 0
