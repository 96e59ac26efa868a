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

let queue t = function
  | Q_active -> t.active
  | Q_inactive -> t.inactive
  | Q_dirty -> t.dirty
  | Q_laundry -> t.laundry
  | Q_none -> invalid_arg "Page_queues: not a queue"

let remove t page =
  if page.q_state <> Q_none then Dlist.remove (queue t page.q_state) (node_of page);
  page.q_state <- Q_none

(* Detach from any queue, then join the tail of [state]'s. *)
let move state t page =
  remove t page;
  Dlist.push_back (queue t state) (node_of page);
  page.q_state <- state

let activate t page = move Q_active t page
let deactivate t page = move Q_inactive t page
let set_dirty t page = move Q_dirty t page
let launder t page = move Q_laundry t page

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
