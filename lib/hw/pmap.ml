type fault = Missing | Protection

type t = { mem : Phys_mem.t; table : (int, Phys_mem.frame * Prot.t) Hashtbl.t }

let create mem = { mem; table = Hashtbl.create 256 }
let enter t ~vpn ~frame ~prot = Hashtbl.replace t.table vpn (frame, prot)

let enter_batch t entries =
  List.iter (fun (vpn, frame, prot) -> Hashtbl.replace t.table vpn (frame, prot)) entries
let remove t ~vpn = Hashtbl.remove t.table vpn

let remove_range t ~lo ~hi =
  (* Iterate whichever side is smaller: the range or the table. *)
  if hi - lo + 1 <= Hashtbl.length t.table then
    for vpn = lo to hi do
      Hashtbl.remove t.table vpn
    done
  else begin
    let doomed =
      Hashtbl.fold (fun vpn _ acc -> if vpn >= lo && vpn <= hi then vpn :: acc else acc) t.table []
    in
    List.iter (fun vpn -> Hashtbl.remove t.table vpn) doomed
  end

let protect_range t ~lo ~hi ~prot =
  if hi - lo + 1 <= Hashtbl.length t.table then
    for vpn = lo to hi do
      match Hashtbl.find_opt t.table vpn with
      | Some (frame, _) -> Hashtbl.replace t.table vpn (frame, prot)
      | None -> ()
    done
  else begin
    let hits =
      Hashtbl.fold
        (fun vpn (frame, _) acc -> if vpn >= lo && vpn <= hi then (vpn, frame) :: acc else acc)
        t.table []
    in
    List.iter (fun (vpn, frame) -> Hashtbl.replace t.table vpn (frame, prot)) hits
  end

let protect t ~vpn ~prot =
  match Hashtbl.find_opt t.table vpn with
  | Some (frame, _) -> Hashtbl.replace t.table vpn (frame, prot)
  | None -> ()

let lookup t ~vpn = Hashtbl.find_opt t.table vpn

let access t ~vpn ~write =
  match Hashtbl.find_opt t.table vpn with
  | None -> Error Missing
  | Some (frame, prot) ->
    let allowed = if write then Prot.can_write prot else Prot.can_read prot in
    if not allowed then Error Protection
    else begin
      Phys_mem.set_referenced t.mem frame true;
      if write then Phys_mem.set_modified t.mem frame true;
      Ok frame
    end

let resident_count t = Hashtbl.length t.table
