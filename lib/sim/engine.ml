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

type owner = ..
type owner += No_owner

(* A simulated thread: its name, whether it waits for its resumer, and
   the state other layers keep per thread: its open trace spans
   (innermost first), the processor it occupies ([-1] for none), the
   one it last ran on, whether its last burst gave its processor away,
   and what it runs for. *)
type fiber = {
  name : string;
  mutable blocked : bool;
  mutable spans : int list;
  mutable cpu : int;
  mutable home : int;
  mutable donated : bool;
  mutable owner : owner;
}

let new_fiber name =
  { name; blocked = false; spans = []; cpu = -1; home = -1; donated = false; owner = No_owner }

let no_fiber = new_fiber ""

type t = {
  mutable now : float;
  mutable seq : int;
  heap : Heap.t;
  mutable events_run : int;
  fibers : (int, fiber) Hashtbl.t; (* unfinished threads, by spawn number *)
  mutable spawned : int;
  mutable anon_count : int; (* per-engine, so names are deterministic *)
  mutable current : fiber; (* the thread running now, or [no_fiber] *)
  mutable until : float; (* the limit of the [run] driving this engine *)
  mutable failure : exn option;
}

type _ Effect.t += Suspend : (t -> ('a -> unit) -> unit) -> 'a Effect.t

(* The engine whose [run] is innermost on the stack. *)
let running = ref None

let create () =
  { now = 0.0; seq = 0; heap = Heap.create (); events_run = 0; fibers = Hashtbl.create 64;
    spawned = 0; anon_count = 0; current = no_fiber; until = infinity; failure = None }

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
  let id = t.spawned and fib = new_fiber name in
  t.spawned <- id + 1;
  Hashtbl.add t.fibers id fib;
  let fiber () =
    let open Effect.Deep in
    t.current <- fib;
    match_with f ()
      {
        retc = (fun () -> Hashtbl.remove t.fibers id);
        exnc = (fun e -> if t.failure = None then t.failure <- Some e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.current <- no_fiber;
                  fib.blocked <- true;
                  register t (fun v ->
                      fib.blocked <- false;
                      schedule t ~at:t.now (fun () ->
                          t.current <- fib;
                          continue k v)))
            | _ -> None);
      }
  in
  schedule t ~at:t.now fiber

(* Run events in order until the queue drains or the next one is due
   after [until]. A thread that yields or ends leaves [current]. *)
let rec drain t =
  (match t.failure with
  | Some e ->
    t.failure <- None;
    raise e
  | None -> ());
  let h = t.heap in
  if h.Heap.size > 0 then begin
    let e = h.Heap.data.(0) in
    if e.time > t.until then t.now <- t.until
    else begin
      Heap.remove h 0;
      t.now <- e.time;
      t.events_run <- t.events_run + 1;
      e.action ();
      t.current <- no_fiber;
      drain t
    end
  end

let run ?until t =
  let outer = !running and outer_until = t.until in
  running := Some t;
  t.until <- Option.value until ~default:infinity;
  Fun.protect ~finally:(fun () -> running := outer; t.until <- outer_until) (fun () -> drain t)

let live t = Hashtbl.length t.fibers

let blocked_names t =
  Hashtbl.fold (fun _ f acc -> if f.blocked then f.name :: acc else acc) t.fibers []
  |> List.sort_uniq String.compare

let suspend register = Effect.perform (Suspend register)

(* [timer] is the timeout of a timed block ([no_timer] for an untimed
   one); the wake that ends the block cancels it. *)
type 'a waiter = {
  mutable waiting : bool;
  resume : 'a -> unit;
  eng : t;
  mutable timer : timer;
}

let waiting w = w.waiting

let wake w v =
  if w.waiting then begin
    w.waiting <- false;
    cancel w.eng w.timer;
    w.resume v
  end

let block ?timeout register =
  suspend (fun eng k ->
      let w = { waiting = true; resume = k; eng; timer = no_timer } in
      register w;
      match timeout with
      | Some (delay, expired) when w.waiting ->
        w.timer <- timer eng ~at:(eng.now +. delay) (fun () -> wake w expired)
      | _ -> ())

(* The thread running now; [no_fiber] in timer callbacks ([schedule])
   and outside [run]. *)
let current () = match !running with Some t -> t.current | None -> no_fiber
let self_opt () = match current () with f when f == no_fiber -> None | f -> Some f
let self () = match current () with f when f == no_fiber -> invalid_arg "Engine.self" | f -> f
let fiber_name f = f.name
let spans f = f.spans
let set_spans f s = f.spans <- s
let cpu f = f.cpu
let set_cpu f c = f.cpu <- c
let home f = f.home
let set_home f c = f.home <- c
let donated f = f.donated
let set_donated f d = f.donated <- d
let owner f = f.owner
let set_owner f o = f.owner <- o

(* A sleep due alone (nothing queued is due at or before its wake, and
   the wake is within [until]) would be the next event the run pops,
   and the resume it schedules the one after: advance the clock in
   place, counting [seq] and [events_run] for both. An event due at the
   wake still goes first, as it wins the tie on [seq]. *)
let sleep delay =
  match !running with
  | Some t when t.current != no_fiber ->
    let at = t.now +. delay in
    let at = if at < t.now then t.now else at and h = t.heap in
    if at <= t.until && (h.Heap.size = 0 || h.Heap.data.(0).time > at) then begin
      t.now <- at;
      t.seq <- t.seq + 2;
      t.events_run <- t.events_run + 2
    end
    else suspend (fun t k -> schedule t ~at (fun () -> k ()))
  | _ -> suspend (fun t k -> schedule t ~at:(t.now +. delay) (fun () -> k ()))
