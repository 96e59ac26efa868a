type 'a state = Empty of 'a option Engine.waiter list | Full of 'a
type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
    t.state <- Full v;
    List.iter (fun w -> Engine.wake w (Some v)) (List.rev waiters);
    true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"
let peek t = match t.state with Full v -> Some v | Empty _ -> None

(* [None] only when the timeout expires first. *)
let wait t ?timeout () =
  match t.state with
  | Full v -> Some v
  | Empty waiters -> Engine.block ?timeout (fun w -> t.state <- Empty (w :: waiters))

let read t = Option.get (wait t ())
let read_timeout t ~timeout = wait t ~timeout:(timeout, None) ()
