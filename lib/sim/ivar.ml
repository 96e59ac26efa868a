type 'a state = Empty of ('a -> unit) list | Full of 'a
type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
    t.state <- Full v;
    List.iter (fun w -> w v) (List.rev waiters);
    true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"
let peek t = match t.state with Full v -> Some v | Empty _ -> None

let read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
    Engine.suspend (fun _eng k ->
        match t.state with
        | Full v -> k v
        | Empty waiters -> t.state <- Empty (k :: waiters))

let read_timeout t ~timeout =
  match t.state with
  | Full v -> Some v
  | Empty _ ->
    Engine.suspend (fun eng k ->
        let fired = ref false in
        let once v =
          if not !fired then begin
            fired := true;
            k v
          end
        in
        match t.state with
        | Full v -> once (Some v)
        | Empty waiters ->
          let timer = Engine.timer eng ~at:(Engine.now eng +. timeout) (fun () -> once None) in
          t.state <-
            Empty
              ((fun v ->
                 Engine.cancel eng timer;
                 once (Some v))
              :: waiters))
