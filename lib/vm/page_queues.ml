open Vm_types
module Dlist = Mach_util.Dlist

(* [dirty]: inactive pages found dirty, set aside for the launder pass. *)
type t = { active : page Dlist.t; inactive : page Dlist.t; dirty : page Dlist.t; laundry : page Dlist.t }

let create () =
  let q () = Dlist.create () in
  { active = q (); inactive = q (); dirty = q (); laundry = q () }

let active_count t = Dlist.length t.active
let inactive_count t = Dlist.length t.inactive + Dlist.length t.dirty
let dirty_count t = Dlist.length t.dirty
let laundry_count t = Dlist.length t.laundry

let node_of page =
  match page.q_node with
  | Some n -> n
  | None ->
    let n = Dlist.node page in
    page.q_node <- Some n;
    n

let remove t page =
  (match page.q_state with
  | Q_none -> ()
  | Q_active -> Dlist.remove t.active (node_of page)
  | Q_inactive -> Dlist.remove t.inactive (node_of page)
  | Q_dirty -> Dlist.remove t.dirty (node_of page)
  | Q_laundry -> Dlist.remove t.laundry (node_of page));
  page.q_state <- Q_none

let activate t page =
  remove t page;
  Dlist.push_back t.active (node_of page);
  page.q_state <- Q_active

let deactivate t page =
  remove t page;
  Dlist.push_back t.inactive (node_of page);
  page.q_state <- Q_inactive

let set_dirty t page =
  remove t page;
  Dlist.push_back t.dirty (node_of page);
  page.q_state <- Q_dirty

let launder t page =
  remove t page;
  Dlist.push_back t.laundry (node_of page);
  page.q_state <- Q_laundry

let oldest_active t = Option.map Dlist.value (Dlist.peek_front t.active)
let oldest_inactive t = Option.map Dlist.value (Dlist.peek_front t.inactive)
let oldest_dirty t = Option.map Dlist.value (Dlist.peek_front t.dirty)

(* Invariant oracle for the property tests: every page on a queue must
   carry the matching [q_state] and page state, every page can be on at
   most one queue, and the counts must agree with the membership walk. *)
let check_invariants t =
  let seen = ref [] in
  let check_queue q want state name =
    let n = ref 0 in
    let err = ref None in
    Dlist.iter
      (fun p ->
        incr n;
        if List.memq p !seen then
          err := Some (Printf.sprintf "page on two queues (second: %s)" name)
        else seen := p :: !seen;
        if p.q_state <> want then
          err := Some (Printf.sprintf "page on %s queue has mismatched q_state" name)
        else if p.p_state <> state then
          err := Some (Printf.sprintf "page on %s queue in the wrong page state" name))
      q;
    match !err with
    | Some e -> Error e
    | None ->
      if !n <> Dlist.length q then Error (Printf.sprintf "%s queue length mismatch" name)
      else Ok ()
  in
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  check_queue t.active Q_active Resident "active" >>= fun () ->
  check_queue t.inactive Q_inactive Resident "inactive" >>= fun () ->
  check_queue t.dirty Q_dirty Resident "dirty" >>= fun () ->
  check_queue t.laundry Q_laundry Cleaning "laundry" >>= fun () -> Ok ()
