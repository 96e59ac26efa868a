(** Deterministic pseudo-random number generation for reproducible
    simulation runs.

    The generator is splitmix64 (used for seeding) feeding xoshiro256**.
    All experiment randomness must come through this module so that a run
    is a pure function of its seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val zipf : t -> n:int -> theta:float -> int
(** Zipf-distributed rank in [\[0, n)]; [theta] near 1.0 gives a classic
    hot/cold skew. Uses the rejection-inversion-free CDF walk with a
    precomputed-free approximation suitable for n up to ~1e6. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
