(** Causal trace spine: a bounded ring buffer of span/point events
    stamped with simulated time and CPU.

    A span is an interval with a causal identity (one page fault, one
    bench phase); its id parents nested spans opened by the same fiber
    and rides across fibers and hosts inside message headers — the
    receiving service loop runs its handler under {!adopt}, so one
    fault's id threads fault entry → pager request → IPC send/receive →
    manager work → reply → resolution.

    Tracing charges no simulated time: traced and untraced runs have
    identical timings and counters. Disabled (the default), every
    entry point is one load and a branch; {!span_open} returns [-1] and
    {!span_close}/{!point}/{!adopt} on it are no-ops, so call sites
    need no guards of their own. *)

type t

type kind = Open | Close | Point

type event = {
  ev_seq : int;  (** monotone over the run; reveals ring wraparound *)
  ev_time : float;  (** simulated microseconds *)
  ev_cpu : int;  (** processor the recording fiber occupies ({!Engine.cpu}); [-1] if none *)
  ev_span : int;  (** span id; [-1] for points outside any span *)
  ev_parent : int;  (** on [Open]: enclosing span id, [-1] for roots *)
  ev_sub : string;  (** subsystem namespace: "vm", "ipc", "sched", ... *)
  ev_kind : kind;
  ev_label : string;
}

type span = {
  sp_id : int;
  sp_parent : int;
  sp_sub : string;
  sp_label : string;  (** the open label, e.g. ["fault"] *)
  sp_resolution : string;  (** the close label, e.g. ["zero_fill"] *)
  sp_start : float;
  sp_end : float;
  sp_cpu : int;  (** CPU at open *)
}

val create : ?capacity:int -> Engine.t -> t
(** [capacity] defaults to 65536 events; the ring keeps the newest. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val capacity : t -> int

val span_open : t -> subsystem:string -> label:string -> int
(** Open a span parented on the calling fiber's current span. Returns
    [-1] when tracing is disabled. *)

val span_close : t -> subsystem:string -> label:string -> int -> unit
(** Close a span with its resolution label. No-op on [-1]. *)

val point : ?span:int -> t -> subsystem:string -> string -> unit
(** Mark an instant, attributed to [span] (default: the calling fiber's
    current span). *)

val adopt : t -> int -> (unit -> 'a) -> 'a
(** Run a thunk with an existing span (one carried in a message header)
    as the fiber's current span — points and child spans inside
    attribute to it. Records no event; no-op on [-1] or when
    disabled. *)

val current : t -> int
(** The calling fiber's current span id, [-1] if none. *)

(** {2 Reductions over the buffered window} *)

val events : t -> event list
(** Oldest first. *)

val recorded : t -> int
(** Events ever recorded (beyond the ring's reach included). *)

val dropped : t -> int
(** Events overwritten by wraparound: [recorded - buffered]. *)

val spans : t -> span list
(** Spans whose [Open] and [Close] both sit in the buffered window, in
    close order. *)

val span_duration : span -> float
val find_span : t -> int -> span option

val balance : t -> int * int
(** [(opens, closes)] in the buffered window — equal (with
    {!unclosed} [= 0]) after a quiesced, wrap-free run. *)

val unclosed : t -> int
(** Spans opened but not closed within the buffered window. *)

val kind_to_string : kind -> string
