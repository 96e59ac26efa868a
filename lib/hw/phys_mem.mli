(** Simulated physical memory: an array of page frames.

    Each frame carries the hardware reference and modify bits that the
    paper's resident-page structures collect from the machine-dependent
    layer (§5.3). The VM system treats frame numbers as opaque. *)

type t
type frame = int

val create : frames:int -> page_size:int -> t
(** All frames start free and read as zeros. A frame gets its
    [page_size] bytes on the host the first time {!alloc} hands it out,
    so simulated memory costs only the frames the kernel uses.
    [page_size] must be a power of two. *)

val page_size : t -> int
val total_frames : t -> int
val free_frames : t -> int

val backed_frames : t -> int
(** Frames that have been allocated at least once and so hold their
    bytes. LIFO reuse keeps this at the most frames ever allocated at
    once. *)

val alloc : t -> frame option
(** Take the most recently freed frame (zeroed), or [None] when physical
    memory is exhausted. Frames never yet allocated come out in
    ascending order. *)

val free : t -> frame -> unit
(** Return a frame to the top of the free stack (Mach's
    [vm_page_free] order); it is zeroed and its ref/mod bits cleared.
    Raises [Invalid_argument] if the frame is already free. *)

val data : t -> frame -> bytes
(** The frame's backing store, length [page_size]. Mutating it mutates
    the frame (this is how the simulation moves page contents). *)

(** {2 Page data}

    [read_into] and [write] are one blit each. They raise
    [Invalid_argument] on a range outside the frame or the buffer, and
    on a free frame. *)

val read_into : t -> frame -> off:int -> bytes -> pos:int -> len:int -> unit
(** Copy [len] bytes of the frame from [off] into the buffer at [pos]. *)

val write : t -> frame -> off:int -> ?pos:int -> ?len:int -> bytes -> unit
(** Copy [len] bytes (default: the rest) of the source from [pos]
    (default 0) into the frame at [off]. *)

val fill : t -> frame -> char -> unit

val copy : t -> src:frame -> dst:frame -> unit
(** Copy a whole frame (used by copy-on-write resolution). *)

(** {2 Reference / modify bits (set by {!Pmap.access})} *)

val referenced : t -> frame -> bool
val modified : t -> frame -> bool
val set_referenced : t -> frame -> bool -> unit
val set_modified : t -> frame -> bool -> unit
