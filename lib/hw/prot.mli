(** Page protection values (the paper's [vm_prot_t]).

    A protection is a subset of \{read, write, execute\}. *)

type t = private int

val none : t
val read : t
val write : t
val rw : t
val rx : t
val all : t

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** [diff a b] removes [b]'s permissions from [a]. *)

val subset : t -> t -> bool
(** [subset a b]: every permission in [a] is also in [b]. *)

val can_read : t -> bool
val can_write : t -> bool
val can_execute : t -> bool
val equal : t -> t -> bool
val to_string : t -> string
(** e.g. ["rw-"]. *)

val to_int : t -> int
val of_int : int -> t
(** Inverse of {!to_int}; out-of-range bits are masked. *)
