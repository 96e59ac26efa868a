(** Simulated block storage device.

    A single request stream with a seek + per-byte transfer latency
    model; concurrent requests queue (FIFO). Operation and byte counters
    feed the §9 "number of I/O operations" measurements.

    Blocks hold no host memory until first written; an unwritten block
    reads as zeroes. *)

type t

val create :
  Mach_sim.Engine.t ->
  name:string ->
  blocks:int ->
  block_size:int ->
  ?seek_us:float ->
  ?transfer_us_per_byte:float ->
  unit ->
  t
(** 1987-class defaults: 20 ms average seek, 1 µs/byte transfer
    (≈ 1 MB/s). *)

val name : t -> string
val blocks : t -> int
val block_size : t -> int

val reattach : t -> Mach_sim.Engine.t -> t
(** A view of the same platters on a new simulation engine — the
    crash-recovery story: the machine reboots, the disk contents
    persist. Stats start fresh; both views share the stored bytes. *)

val read : t -> block:int -> bytes
(** Blocking; charges simulated seek + transfer time. *)

val read_blocks : t -> block:int -> count:int -> bytes
(** Blocking. Reads [count] consecutive blocks starting at [block] into
    one buffer: one seek plus the per-byte transfer of all [count]
    blocks, counted as one operation ([read] is [count = 1]). Raises
    [Invalid_argument] if [count < 1] or the run goes past the last
    block. *)

val write : t -> block:int -> bytes -> unit
(** Blocking. [data] fills [block] and the blocks after it in order, so
    one call can store a run of consecutive blocks: it charges one seek
    plus the per-byte transfer and counts as one operation. A short
    final block keeps its tail. Raises [Invalid_argument] if the data
    runs past the last block. *)

val read_raw : t -> block:int -> bytes
(** Instantaneous, no time charge and no counter update — for crash
    recovery inspection in tests. *)

val write_raw : t -> block:int -> bytes -> unit
(** {!write} without the time charge or counter update. *)

(** {2 Statistics} *)

val stats : t -> Mach_util.Metrics.Counters.t
(** [reg.disk.*]: reads and writes (operations), and the blocks and
    bytes they moved; a multi-block transfer is one operation but
    counts every block it covers. *)

val bytes_read : t -> int
val bytes_written : t -> int
val ops : t -> int
val reset_stats : t -> unit
