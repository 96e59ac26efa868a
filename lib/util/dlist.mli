(** Intrusive doubly-linked lists.

    Used for the VM pageout queues (active / inactive / free), where a
    resident page must be removable from the middle of its queue in O(1)
    and must know whether it is currently enqueued (§5.4 of the paper).

    Each element owns a [node] that can be on at most one list at a time. *)

type 'a node
type 'a t

val create : unit -> 'a t
val node : 'a -> 'a node
(** A fresh unattached node carrying its payload. *)

val value : 'a node -> 'a
val length : 'a t -> int

val attached : 'a node -> bool
(** Whether the node is currently on some list. *)

val push_back : 'a t -> 'a node -> unit
(** Enqueue at the tail. Raises [Invalid_argument] if already attached. *)

val push_front : 'a t -> 'a node -> unit

val pop_front : 'a t -> 'a node option
(** Dequeue from the head. *)

val peek_front : 'a t -> 'a node option

val remove : 'a t -> 'a node -> unit
(** Remove from the middle; raises [Invalid_argument] if the node is not
    on this list. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Head-to-tail iteration. *)

val to_list : 'a t -> 'a list
