(** The traditional UNIX block buffer cache (§9's comparison system):
    a fixed pool of block buffers — "normally 10% of physical memory in
    a Berkeley UNIX system" — managed LRU, with delayed writes flushed
    on eviction or [sync]. *)

type t

val create : disk:Mach_hw.Disk.t -> buffers:int -> t
(** [buffers] fixed cache slots of one disk block each. *)

val bread : t -> block:int -> bytes
(** Read through the cache; charges disk time only on a miss. The
    returned bytes are the cache buffer itself — treat as read-only. *)

val bwrite : t -> block:int -> bytes -> unit
(** Delayed write: dirty the cached buffer; disk I/O happens at
    eviction or {!sync}. *)

val sync : t -> unit
(** Flush all dirty buffers. *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
val reset_stats : t -> unit
