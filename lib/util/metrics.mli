(** Unified metrics registry: every subsystem's counters behind one
    snapshot/serialize surface.

    Hot paths keep their cost profile. A subsystem declares each of its
    counters once, in a {!Counters.layout}; an increment is one
    bounds-checked store into an [int array], and the registry reads the
    array only at snapshot time ({!counters}). Metrics that are not
    counts use a sampled {!gauge} (a closure read at snapshot time) or a
    {!histogram} (fixed log buckets reduced to count/mean/p50/p95/max
    at snapshot time). Counters only grow: measure a phase with {!delta}
    between two snapshots.

    Keys are ["subsystem.name"]; a snapshot is flat and sorted, so one
    JSON serializer covers the syscall surface, the bench harness and
    the CLI. Registering two blocks or sources under one subsystem (the
    disks of one host, pagers named alike) sums their values. *)

(** Blocks of named integer counters, each name declared once. *)
module Counters : sig
  type layout
  (** The names of a kind of block, in declaration order. *)

  type id
  (** One declared counter: an index into every block of its layout. *)

  type t
  (** A block: one [int] per counter of its layout, all starting at 0. *)

  val layout : unit -> layout

  val declare : layout -> string -> id
  (** Append a counter to the layout. Declare every counter before
      the first {!create}: a block holds the counters declared when it
      was created. Raises [Invalid_argument] on a name declared twice. *)

  val create : layout -> t
  val incr : t -> id -> unit
  val add : t -> id -> int -> unit

  val peak : t -> id -> int -> unit
  (** Raise the counter to the given value if it is larger: a running
      maximum. *)

  val get : t -> id -> int

  val value : t -> string -> int
  (** Read a counter by name. Raises [Invalid_argument] if the block
      has no such counter. *)

  val to_list : t -> (string * int) list
  (** Every counter, in declaration order. *)

  val reset : t -> unit
  (** Zero every counter of the block. *)
end

type registry
type snapshot = (string * float) list

type histogram
(** A pre-registered sample accumulator of fixed size: about 3 k ints
    of log buckets, 64 per octave, allocated once, so it does not grow
    with the samples it is given. Snapshots expand it into [.count],
    [.mean], [.p50], [.p95] and [.max] keys (the latter four only when
    non-empty). [count], [mean] (from an exact running sum) and [max]
    are exact. [p50] and [p95] follow {!Stats.percentile}'s
    interpolation, with each order statistic read as its bucket's lower
    bound clamped to the sample range: exact for integers up to 128,
    within 1/64 relative for other samples from 2{^-8} to 2{^40}. *)

val create : unit -> registry

val gauge : registry -> subsystem:string -> string -> (unit -> int) -> unit
(** A sampled value (queue depth, free frames): the closure runs at
    snapshot time, never on a hot path. *)

val histogram : registry -> subsystem:string -> string -> histogram
val observe : histogram -> float -> unit
(** Record one sample; allocates nothing. *)

val counters : registry -> subsystem:string -> Counters.t -> unit
(** Report a block's counters as ["subsystem.name"] keys. *)

val register_source : registry -> subsystem:string -> (unit -> (string * int) list) -> unit
(** Report a stats record that is not a {!Counters} block: [read]
    lists its values at snapshot time. [Pager_runtime.Stats] is the
    one user; it stays a record because the [bench/perf] layer probe
    reads its fields. *)

val snapshot : registry -> snapshot
(** Flat, sorted; duplicate keys summed. *)

val delta : before:snapshot -> after:snapshot -> snapshot
(** Pointwise [after - before] (a missing key counts as 0): meaningful
    for monotone counters and a histogram's [.count]. Its [.mean] is the
    phase's own; its [.p50], [.p95] and [.max] appear only when [before]
    had no samples, as two snapshots give them exactly only then. *)

val merge : snapshot list -> snapshot
(** Pointwise sum over the union of keys (e.g. the hosts of a
    cluster). A histogram's [.mean] is weighted by count and its [.max]
    is the largest; its [.p50] and [.p95] appear only when a single
    input had samples. *)

val find : snapshot -> string -> float option
val get : ?default:float -> snapshot -> string -> float

val to_json : ?indent:int -> snapshot -> string
(** A flat object, one ["key": number] pair per line, [indent] columns
    in (default 2); the closing brace sits [indent - 2] columns in, so
    [~indent:4] nests the object inside an outer one. Integers print
    without a fraction, everything else with three decimals. *)
