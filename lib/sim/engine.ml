type event = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable pos : int; (* index in the heap array; -1 once run or cancelled *)
}

(* Binary min-heap on (time, seq); seq breaks ties so runs are
   deterministic. Each event knows its slot, so a cancelled timer
   leaves from the middle in O(log n). *)
module Heap = struct
  type t = { mutable data : event array; mutable size : int; mutable peak : int }

  let dummy = { time = 0.0; seq = 0; action = (fun () -> ()); pos = -1 }
  let create () = { data = Array.make 64 dummy; size = 0; peak = 0 }

  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let set h i e =
    h.data.(i) <- e;
    e.pos <- i

  (* Fill the hole at [i] with [e], moving the hole towards the root
     ([sift_up]) or the leaves ([sift_down]) until [e] is in order. *)
  let rec sift_up h i e =
    let p = (i - 1) / 2 in
    if i > 0 && less e h.data.(p) then begin
      set h i h.data.(p);
      sift_up h p e
    end
    else set h i e

  let rec sift_down h i e =
    let l = (2 * i) + 1 in
    if l >= h.size then set h i e
    else
      let c = if l + 1 < h.size && less h.data.(l + 1) h.data.(l) then l + 1 else l in
      if less h.data.(c) e then begin
        set h i h.data.(c);
        sift_down h c e
      end
      else set h i e

  let push h e =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.size <- h.size + 1;
    if h.size > h.peak then h.peak <- h.size;
    sift_up h (h.size - 1) e

  (* Take out the event at slot [i]; the last event fills the hole. *)
  let remove h i =
    h.data.(i).pos <- -1;
    h.size <- h.size - 1;
    let last = h.data.(h.size) in
    h.data.(h.size) <- dummy;
    if i < h.size then
      if i > 0 && less last h.data.((i - 1) / 2) then sift_up h i last else sift_down h i last
end

type t = {
  mutable now : float;
  mutable seq : int;
  heap : Heap.t;
  mutable events_run : int;
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
  { now = 0.0; seq = 0; heap = Heap.create (); events_run = 0; live = 0;
    suspended = Hashtbl.create 64; next_token = 0; anon_count = 0; failure = None }

let now t = t.now

type timer = event

let no_timer = Heap.dummy

let timer t ~at action =
  let at = if at < t.now then t.now else at in
  t.seq <- t.seq + 1;
  let e = { time = at; seq = t.seq; action; pos = -1 } in
  Heap.push t.heap e;
  e

let schedule t ~at action = ignore (timer t ~at action)
let cancel t e = if e.pos >= 0 then Heap.remove t.heap e.pos
let pending t = t.heap.Heap.size
let peak_pending t = t.heap.Heap.peak
let events_run t = t.events_run

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
  let h = t.heap in
  let stop = ref false in
  while not !stop do
    (match t.failure with
    | Some e ->
      t.failure <- None;
      raise e
    | None -> ());
    if h.Heap.size = 0 then stop := true
    else begin
      let e = h.Heap.data.(0) in
      match until with
      | Some limit when e.time > limit ->
        t.now <- limit;
        stop := true
      | _ ->
        Heap.remove h 0;
        t.now <- e.time;
        t.events_run <- t.events_run + 1;
        e.action ()
    end
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
