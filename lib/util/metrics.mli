(** Unified metrics registry: every subsystem's counters behind one
    snapshot/serialize surface.

    Hot paths keep their cost profile: a subsystem's existing mutable
    stats record is itself the set of pre-registered O(1) handles — the
    registry holds a read closure over it ({!register_source}) and is
    never on the increment path. Metrics with no record to live in use
    a sampled {!gauge} (a closure read at snapshot time) or a
    {!histogram} (fixed log buckets reduced to count/mean/p50/p95/max
    at snapshot time). Counters only grow: measure a phase with {!delta}
    between two snapshots.

    Keys are ["subsystem.name"]; a snapshot is flat and sorted, so one
    JSON serializer covers the syscall surface, the bench harness and
    the CLI. Registering two sources under one subsystem (e.g. several
    pagers named alike) sums their values. *)

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

val register_source : registry -> subsystem:string -> (unit -> (string * int) list) -> unit
(** Adopt an existing stats block: [read] is typically the block's
    [stats_to_list]. *)

val snapshot : registry -> snapshot
(** Flat, sorted; duplicate keys summed. *)

val delta : before:snapshot -> after:snapshot -> snapshot
(** Pointwise [after - before] over [after]'s keys (missing [before]
    keys count as 0). Meaningful for monotone counters; histogram
    percentile keys subtract numerically like everything else. *)

val merge : snapshot list -> snapshot
(** Pointwise sum over the union of keys (e.g. the hosts of a
    cluster). *)

val find : snapshot -> string -> float option
val get : ?default:float -> snapshot -> string -> float

val to_json : ?indent:int -> snapshot -> string
(** A flat object, one ["key": number] pair per line, [indent] columns
    in (default 2); the closing brace sits [indent - 2] columns in, so
    [~indent:4] nests the object inside an outer one. Integers print
    without a fraction, everything else with three decimals. *)
