(** The data-manager runtime: one protocol framework under every pager.

    Owns what every manager used to duplicate — the memory-object
    registry, multi-page [data_request] splitting with coalesced
    replies, run-shaped [data_write] delivery, unlock resolution, release
    accounting, port-death bookkeeping, and a uniform {!Stats} block.
    A manager supplies a {!policy} and becomes a thin policy module.

    Transport-agnostic: [send] is injected and {!dispatch} decodes what
    the transport receives, so the same engine serves the four
    user-level managers (through [Memory_object_server.serve]) and the
    in-kernel default pager (through its own receive loop). *)

module Message = Mach_ipc.Message
module Prot = Mach_hw.Prot

module Stats : sig
  type t = {
    mutable s_requests : int;
    mutable s_pages_served : int;
    mutable s_unavailable : int;
    mutable s_writes : int;
    mutable s_pages_written : int;
    mutable s_unlocks : int;
    mutable s_dropped_replies : int;
    mutable s_port_deaths : int;
  }

  val create : unit -> t
  val to_list : t -> (string * int) list
end

type 'o obj = {
  o_port : Message.port;
  o_id : int;
  mutable o_requests : Message.port list;
  o_data : 'o;
}

type page_reply = Data of bytes | Unavailable | Defer
type unlock_reply = Grant | Relock of Prot.t | Defer_unlock

type 'o t

and 'o policy = {
  p_read :
    'o t -> 'o obj -> request:Message.port -> page:int -> npages:int -> desired_access:Prot.t ->
    page_reply;
      (** Called for the first page of the (reshaped) [data_request] not
          yet answered: [page] is its index and [npages] the number of
          pages left in the request, [page] included. The mirror of
          [p_write]'s run: [Data] may carry k <= [npages] whole pages,
          or end in a trailing partial page at end-of-object, and the
          runtime moves on by k pages; [Unavailable] and [Defer] answer
          [page] alone. A disk-backed policy should read the run with
          as few seeks as its layout allows; one that works a page at a
          time ignores [npages] and returns one page. Adjacent [Data]
          replies still coalesce into one [data_provided]. *)
  p_write : 'o t -> 'o obj -> offset:int -> data:bytes -> unit;
      (** Called once per [data_write] with the whole run of adjacent
          pages starting at byte [offset]. The runtime releases the run
          when this returns, so a policy that takes long here delays the
          release, and past [data_write_release_timeout_us] the kernel
          double-pages the run to the default pager. A disk-backed
          policy should store the run with as few seeks as its layout
          allows; one that stores page by page uses {!iter_pages}. *)
  p_unlock :
    'o t -> 'o obj -> request:Message.port -> page:int -> desired_access:Prot.t -> unlock_reply;
  p_reshape : 'o t -> 'o obj -> first:int -> npages:int -> int * int;
  p_init : 'o t -> 'o obj -> request:Message.port -> unit;
  p_lock_completed :
    'o t -> 'o obj -> request:Message.port option -> offset:int -> length:int -> unit;
  p_death : 'o t -> 'o obj -> Message.port -> unit;
  p_may_cache : bool option;
}

val default_policy : 'o policy

val create :
  name:string ->
  page_size:int ->
  send:(Message.t -> (unit, unit) result) ->
  defer:((unit -> unit) -> unit) ->
  'o policy ->
  'o t
(** The runtime hooks the death of every registered object port and of
    every request port an object names, and hands each death to
    [defer]: a host whose [p_death] may block queues it to a thread of
    its own, one that must not wait runs it at once. The death drops
    the port from every object that named it, runs [p_death], and
    unregisters an object whose own port died. *)

val name : 'o t -> string
val page_size : 'o t -> int
val stats : 'o t -> Stats.t

(** {2 Registry} *)

val register : 'o t -> memory_object:Message.port -> 'o -> 'o obj
val unregister : 'o t -> 'o obj -> unit
val find : 'o t -> Message.port -> 'o obj option
val find_data : 'o t -> Message.port -> 'o option
val requests : 'o obj -> Message.port list

(** {2 Manager→kernel calls (Table 3-6)}

    A send that fails (the kernel's request port died) counts one
    [s_dropped_replies]. *)

val data_provided :
  'o t -> request:Message.port -> offset:int -> data:bytes -> lock_value:Prot.t -> unit

val data_unavailable : 'o t -> request:Message.port -> offset:int -> size:int -> unit
val data_lock : 'o t -> request:Message.port -> offset:int -> length:int -> lock_value:Prot.t -> unit
val flush_request : 'o t -> request:Message.port -> offset:int -> length:int -> unit
val clean_request : 'o t -> request:Message.port -> offset:int -> length:int -> unit
val cache : 'o t -> request:Message.port -> may_cache:bool -> unit

(** {2 Kernel→manager dispatch (Table 3-5)} *)

val dispatch :
  'o t ->
  ?adopt:(memory_object:Message.port -> 'o) ->
  other:(Message.t -> unit) ->
  Message.t ->
  unit
(** Decode one message a manager received and serve it. Calls for an
    object not registered are dropped, except that [pager_create] and
    [pager_init] first register it with [adopt]'s state when [adopt] is
    given (the default pager's one private step). A [data_write] runs
    [p_write] once for the whole run and then releases it to the
    header's reply port, also for an object no longer registered.
    Traffic outside the pager protocol goes to [other] (a manager's own
    RPCs); malformed pager messages are dropped. *)

val iter_pages :
  'o t -> offset:int -> data:bytes -> (page:int -> pos:int -> len:int -> unit) -> unit
(** [iter_pages t ~offset ~data f] calls [f] for each page of a
    [data_write] run: [page] is the page index, and [data]'s bytes
    [pos, pos + len) are its contents. *)

(** {2 Block-boundary splitting} *)

module Blocks : sig
  val read_range :
    block_size:int -> read:(index:int -> bytes option) -> offset:int -> len:int -> bytes

  val write_range :
    block_size:int ->
    read:(index:int -> bytes option) ->
    write:(index:int -> bytes -> unit) ->
    offset:int ->
    data:bytes ->
    unit
end
