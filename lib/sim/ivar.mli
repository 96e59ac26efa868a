(** Write-once synchronisation cells (futures).

    The fault handler blocks on an ivar that is filled when the data
    manager's [pager_data_provided] arrives; the timeout variant
    implements the §6.2.1 "abort a memory request after a timeout"
    recovery option. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Fill the cell and wake all readers. Raises [Invalid_argument] if
    already filled. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when full. *)

val peek : 'a t -> 'a option

val read : 'a t -> 'a
(** Block the calling thread until the cell is filled. *)

val read_timeout : 'a t -> timeout:float -> 'a option
(** Block for at most [timeout] simulated microseconds; [None] on
    expiry. The fill cancels the timeout, so a read that ends early
    leaves no timer queued. *)
