(* Causal trace spine: a bounded ring buffer of events stamped with
   simulated time, CPU and a span id.

   A *span* is an interval with a causal identity — one page fault, one
   bench phase. [span_open] allocates a fresh id (parented on the
   opener's current span) and pushes it on the span stack the opening
   fiber carries ([Engine.spans]); [span_close] records the resolution
   label and pops. [point] marks an instant inside the current (or an
   explicit) span. Causality crosses fibers by carrying the id — the
   IPC transport stamps the sender's current span into the message
   header and the receiving service loop runs its handler under
   [adopt] — so one fault's id threads fault entry → pager request →
   IPC send/receive → manager → reply → resolution, across any number
   of threads and hosts sharing the engine.

   Tracing is an observability layer, not a simulation effect: it
   charges no simulated time, so a traced run and an untraced run have
   identical timings and counters. Disabled (the default), every entry
   point is one load and a branch; the ring keeps the newest [capacity]
   events when enabled ([dropped] counts the overwritten ones). *)

type kind = Open | Close | Point

type event = {
  ev_seq : int;  (** monotone over the run; reveals ring wraparound *)
  ev_time : float;  (** simulated microseconds *)
  ev_cpu : int;  (** processor of the recording fiber; -1 if unknown *)
  ev_span : int;  (** span id; -1 for points outside any span *)
  ev_parent : int;  (** on [Open]: enclosing span id, -1 for roots *)
  ev_sub : string;  (** subsystem namespace, e.g. "vm", "ipc", "sched" *)
  ev_kind : kind;
  ev_label : string;
}

type span = {
  sp_id : int;
  sp_parent : int;
  sp_sub : string;
  sp_label : string;  (** the open label, e.g. "fault" *)
  sp_resolution : string;  (** the close label, e.g. "zero_fill" *)
  sp_start : float;
  sp_end : float;
  sp_cpu : int;  (** CPU at open *)
}

type t = {
  eng : Engine.t;
  mutable on : bool;
  buf : event array;
  mutable head : int;  (* next write slot *)
  mutable count : int;  (* valid events, <= capacity *)
  mutable total : int;  (* ever recorded *)
  mutable next_span : int;
}

let none = -1

let dummy_event =
  { ev_seq = 0; ev_time = 0.0; ev_cpu = none; ev_span = none; ev_parent = none;
    ev_sub = ""; ev_kind = Point; ev_label = "" }

let create ?(capacity = 65536) eng =
  if capacity < 2 then invalid_arg "Trace.create: capacity must be at least 2";
  { eng; on = false; buf = Array.make capacity dummy_event; head = 0; count = 0;
    total = 0; next_span = 0 }

let enabled t = t.on
let set_enabled t b = t.on <- b
let capacity t = Array.length t.buf

(* The span stack and the processor come from the recording fiber
   itself; a timer callback has neither. *)
let record t ~span ~parent ~sub ~kind ~label ~who =
  let ev =
    { ev_seq = t.total; ev_time = Engine.now t.eng;
      ev_cpu = (match who with Some f -> Engine.cpu f | None -> none); ev_span = span;
      ev_parent = parent; ev_sub = sub; ev_kind = kind; ev_label = label }
  in
  t.buf.(t.head) <- ev;
  t.head <- (t.head + 1) mod Array.length t.buf;
  if t.count < Array.length t.buf then t.count <- t.count + 1;
  t.total <- t.total + 1

let top_of = function
  | Some f -> ( match Engine.spans f with s :: _ -> s | [] -> none)
  | None -> none

let current t = if not t.on then none else top_of (Engine.self_opt ())

let push f span = Engine.set_spans f (span :: Engine.spans f)

(* Pop the topmost occurrence; out-of-order closes (span kept across a
   structured retry) still unwind correctly. *)
let pop f span =
  let rec drop = function [] -> [] | s :: rest -> if s = span then rest else s :: drop rest in
  Engine.set_spans f (drop (Engine.spans f))

let span_open t ~subsystem ~label =
  if not t.on then none
  else begin
    let who = Engine.self_opt () in
    let id = t.next_span in
    t.next_span <- id + 1;
    record t ~span:id ~parent:(top_of who) ~sub:subsystem ~kind:Open ~label ~who;
    Option.iter (fun f -> push f id) who;
    id
  end

let span_close t ~subsystem ~label span =
  if t.on && span >= 0 then begin
    let who = Engine.self_opt () in
    record t ~span ~parent:none ~sub:subsystem ~kind:Close ~label ~who;
    Option.iter (fun f -> pop f span) who
  end

let point ?span t ~subsystem label =
  if t.on then begin
    let who = Engine.self_opt () in
    let sp = match span with Some s -> s | None -> top_of who in
    record t ~span:sp ~parent:none ~sub:subsystem ~kind:Point ~label ~who
  end

let adopt t span f =
  if (not t.on) || span < 0 then f ()
  else
    match Engine.self_opt () with
    | None -> f ()
    | Some w ->
      push w span;
      Fun.protect ~finally:(fun () -> pop w span) f

(* {2 Reductions} *)

let events t =
  let n = Array.length t.buf in
  let start = (t.head - t.count + n) mod n in
  List.init t.count (fun i -> t.buf.((start + i) mod n))

let recorded t = t.total
let dropped t = t.total - t.count

let spans t =
  let opens = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun ev ->
      match ev.ev_kind with
      | Open -> Hashtbl.replace opens ev.ev_span ev
      | Close -> (
        match Hashtbl.find_opt opens ev.ev_span with
        | Some o ->
          Hashtbl.remove opens ev.ev_span;
          out :=
            { sp_id = ev.ev_span; sp_parent = o.ev_parent; sp_sub = o.ev_sub;
              sp_label = o.ev_label; sp_resolution = ev.ev_label; sp_start = o.ev_time;
              sp_end = ev.ev_time; sp_cpu = o.ev_cpu }
            :: !out
        | None -> ())
      | Point -> ())
    (events t);
  List.rev !out

let span_duration sp = sp.sp_end -. sp.sp_start
let find_span t id = List.find_opt (fun sp -> sp.sp_id = id) (spans t)

let balance t =
  List.fold_left
    (fun (o, c) ev ->
      match ev.ev_kind with Open -> (o + 1, c) | Close -> (o, c + 1) | Point -> (o, c))
    (0, 0) (events t)

let unclosed t =
  let opens = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev.ev_kind with
      | Open -> Hashtbl.replace opens ev.ev_span ()
      | Close -> Hashtbl.remove opens ev.ev_span
      | Point -> ())
    (events t);
  Hashtbl.length opens

let kind_to_string = function Open -> "open" | Close -> "close" | Point -> "point"
