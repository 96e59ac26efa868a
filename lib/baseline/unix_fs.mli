(** The traditional UNIX file I/O path (§9's baseline): [read]/[write]
    system calls moving data between the user buffer and a fixed-size
    kernel buffer cache with an explicit copy — "accessed by user
    programs through read and write kernel-to-user and user-to-kernel
    copy operations".

    Compare with the Mach path, where the file is mapped and the bulk
    of physical memory caches it with no copies. *)

type t

val create :
  Mach_hw.Machine.params ->
  disk:Mach_hw.Disk.t ->
  cache_buffers:int ->
  format:bool ->
  t
(** [cache_buffers] is the fixed buffer-cache size in blocks (pick 10%
    of the machine's page frames for the classic configuration). *)

val fs : t -> Mach_fs.Fs_layout.t

val read : t -> string -> off:int -> len:int -> bytes option
(** [read] syscall: cache lookup per block plus a kernel-to-user copy
    of every byte. [None] if the file does not exist. *)

val write : t -> string -> off:int -> bytes -> unit
(** [write] syscall: user-to-kernel copy, then delayed writes through
    the cache. *)

val read_file : t -> string -> bytes option
val write_file : t -> string -> bytes -> unit
val file_size : t -> string -> int option
val sync : t -> unit
