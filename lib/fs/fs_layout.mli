(** A small on-disk filesystem: superblock, fixed inode table, block
    bitmap, data blocks with single-indirect addressing.

    This is the secondary-storage substrate shared by the Mach
    filesystem server (§4.1) and the traditional-UNIX baseline (§9), so
    both systems pay identical disk costs for identical data. Metadata
    is cached in memory after mount and written through; only data-block
    transfers and metadata write-through touch the simulated disk. *)

type t

exception Fs_error of string

val format : Mach_hw.Disk.t -> max_files:int -> t
(** Initialise an empty filesystem on the disk. The disk's block size
    is the filesystem block size. *)

val mount : Mach_hw.Disk.t -> t
(** Re-read the metadata of a previously formatted disk (crash-recovery
    entry point). *)

val disk : t -> Mach_hw.Disk.t
val block_size : t -> int
val max_file_size : t -> int

val exists : t -> string -> bool
val file_size : t -> string -> int option
val list_files : t -> string list

val create : t -> string -> unit
(** Create an empty file; no-op if it exists. Raises {!Fs_error} when
    the inode table is full or the name is too long (> 63 bytes). *)

val delete : t -> string -> unit

val read_file : t -> string -> bytes option
(** Whole-file read: {!read_range} over the whole file. *)

val write_file : t -> string -> bytes -> unit
(** Whole-file (re)write, creating the file if needed; blocks past the
    new end are freed. Each maximal run of disk-contiguous blocks is
    one {!Mach_hw.Disk.write}, as in {!write_range}. *)

val read_range : t -> string -> off:int -> len:int -> bytes option
(** Range read (short when crossing EOF). Each maximal run of
    disk-contiguous blocks is one {!Mach_hw.Disk.read_blocks}: one seek
    per run, not per block. Never-allocated blocks read as zeroes
    without a disk read. *)

val read_block : t -> string -> index:int -> bytes option
(** Read the [index]-th file block (zero-filled past EOF within the
    file's block span, [None] wholly outside). *)

val write_block : t -> string -> index:int -> bytes -> unit
(** Write one file block, extending the file if needed. *)

val write_range : t -> string -> off:int -> bytes -> unit
(** Write [data] at byte [off], creating and extending the file if
    needed and allocating missing blocks first-fit. Each maximal run of
    disk-contiguous blocks is one {!Mach_hw.Disk.write}: one seek per
    run, not per block. A head that starts mid-block merges over the
    stored bytes (one charged block read); bytes of the file outside
    the range are unchanged, and a gap between the old end and [off]
    reads as zeroes. An empty [data] is a no-op. Raises {!Fs_error} when
    the disk is full or the file would outgrow {!max_file_size}. *)

(** {2 Block-level access for external caching layers}

    The UNIX baseline's buffer cache sits between the file layer and
    the disk: it translates file blocks to disk blocks here and does
    its own {!Mach_hw.Disk} I/O. *)

val file_disk_block : t -> string -> index:int -> int option
(** The disk block holding the [index]-th file block; [None] if the
    file doesn't exist or the block was never allocated. *)

val ensure_disk_block : t -> string -> index:int -> int
(** Allocate (if needed) and return the disk block for a file block,
    creating the file too. Charges metadata write-through. *)

val note_file_size : t -> string -> int -> unit
(** Grow the recorded size to at least the given value. *)
