(** The request/reply stub every message-based service shares: what the
    Mach Interface Generator would emit for each of them. A request is
    an ordinary message with a fresh reply port; a reply leads with one
    status item — a bool, optionally followed by a detail string — and
    carries the operation's results after it. *)

open Ktypes
module Message = Mach_ipc.Message

val call :
  task ->
  dest:Message.port ->
  msg_id:int ->
  Message.item list ->
  (Message.t, [> `Refused of string | `Malformed | `Ipc_failure ]) result
(** Allocate a reply port, [msg_rpc], deallocate it. [Ok] is the reply
    with its status item removed; [`Refused] carries the server's
    detail ([""] when it sent none). *)

val reply : send:(Message.t -> (unit, _) result) -> Message.t -> Message.item list -> unit
(** Answer a request on its reply port, echoing its [msg_id]. A request
    without a reply port, or a failed send, gets no answer. *)

val status : ?detail:string -> bool -> Message.item
val int : int -> Message.item

val decode : Message.t -> (Mach_util.Codec.Dec.t -> 'a) -> ('a, [> `Malformed ]) result
(** Run a decoder over the message's first data item; a missing item or
    a truncated payload is [`Malformed]. *)
