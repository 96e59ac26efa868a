type event = { time : float; seq : int; action : unit -> unit }

(* Binary min-heap on (time, seq); seq breaks ties so runs are
   deterministic. *)
module Heap = struct
  type t = { mutable data : event array; mutable size : int }

  let dummy = { time = 0.0; seq = 0; action = (fun () -> ()) }
  let create () = { data = Array.make 64 dummy; size = 0 }

  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push h e =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && less h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(p) in
      h.data.(p) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      h.data.(h.size) <- dummy;
      let i = ref 0 in
      let continue_sifting = ref true in
      while !continue_sifting do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && less h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && less h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue_sifting := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end

  let peek h = if h.size = 0 then None else Some h.data.(0)
end

type t = {
  mutable now : float;
  mutable seq : int;
  heap : Heap.t;
  mutable live : int;
  suspended : (int, string) Hashtbl.t; (* suspension token -> thread name *)
  mutable next_token : int;
  mutable anon_count : int; (* per-engine, so names are deterministic *)
  mutable failure : exn option;
}

type 'a resumer = 'a -> unit

type _ Effect.t +=
  | Suspend : (t -> 'a resumer -> unit) -> 'a Effect.t
  | Self_name : string Effect.t

let create () =
  { now = 0.0; seq = 0; heap = Heap.create (); live = 0;
    suspended = Hashtbl.create 64; next_token = 0; anon_count = 0; failure = None }

let now t = t.now

let schedule t ~at action =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  Heap.push t.heap { time = at; seq = t.seq; action }

let spawn t ?name f =
  let name =
    match name with
    | Some n -> n
    | None ->
      t.anon_count <- t.anon_count + 1;
      Printf.sprintf "thread-%d" t.anon_count
  in
  t.live <- t.live + 1;
  let fiber () =
    let open Effect.Deep in
    match_with f ()
      {
        retc = (fun () -> t.live <- t.live - 1);
        exnc = (fun e -> if t.failure = None then t.failure <- Some e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let token = t.next_token in
                  t.next_token <- t.next_token + 1;
                  Hashtbl.replace t.suspended token name;
                  let resumer v =
                    Hashtbl.remove t.suspended token;
                    schedule t ~at:t.now (fun () -> continue k v)
                  in
                  register t resumer)
            | Self_name -> Some (fun (k : (a, unit) continuation) -> continue k name)
            | _ -> None);
      }
  in
  schedule t ~at:t.now fiber

let run ?until t =
  let stop = ref false in
  while not !stop do
    (match t.failure with
    | Some e ->
      t.failure <- None;
      raise e
    | None -> ());
    match Heap.peek t.heap with
    | None -> stop := true
    | Some e ->
      (match until with
      | Some limit when e.time > limit ->
        t.now <- limit;
        stop := true
      | _ ->
        (match Heap.pop t.heap with
        | None -> assert false
        | Some e ->
          t.now <- e.time;
          e.action ()))
  done;
  match t.failure with
  | Some e ->
    t.failure <- None;
    raise e
  | None -> ()

let live t = t.live

let blocked_names t =
  Hashtbl.fold (fun _ name acc -> name :: acc) t.suspended []
  |> List.sort_uniq String.compare

let suspend register = Effect.perform (Suspend register)
let self_name () = Effect.perform Self_name

(* Timer callbacks ([schedule]) and code outside [run] are not fibers;
   performing an effect there raises. Observability plumbing (Trace)
   wants "whoever is running, if anyone" without caring. *)
let self_name_opt () =
  match Effect.perform Self_name with
  | name -> Some name
  | exception Effect.Unhandled Self_name -> None
let sleep delay = suspend (fun t k -> schedule t ~at:(t.now +. delay) (fun () -> k ()))
