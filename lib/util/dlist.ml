type 'a t = { mutable head : 'a node option; mutable tail : 'a node option; mutable len : int; id : int }

and 'a node = {
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : int; (* id of the owning list, or -1 when detached *)
}

let next_id = ref 0

let create () =
  incr next_id;
  { head = None; tail = None; len = 0; id = !next_id }

let node value = { value; prev = None; next = None; owner = -1 }
let value n = n.value
let length t = t.len
let attached n = n.owner >= 0

let push_back t n =
  if attached n then invalid_arg "Dlist.push_back: node already attached";
  n.owner <- t.id;
  n.prev <- t.tail;
  n.next <- None;
  (match t.tail with Some tl -> tl.next <- Some n | None -> t.head <- Some n);
  t.tail <- Some n;
  t.len <- t.len + 1

let push_front t n =
  if attached n then invalid_arg "Dlist.push_front: node already attached";
  n.owner <- t.id;
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some hd -> hd.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n;
  t.len <- t.len + 1

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.owner <- -1;
  t.len <- t.len - 1

let pop_front t =
  match t.head with
  | None -> None
  | Some n ->
    unlink t n;
    Some n

let peek_front t = t.head

let remove t n =
  if n.owner <> t.id then invalid_arg "Dlist.remove: node not on this list";
  unlink t n

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
      let next = n.next in
      f n.value;
      go next
  in
  go t.head

let to_list t =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) t;
  List.rev !acc
