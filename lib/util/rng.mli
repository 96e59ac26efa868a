(** Deterministic pseudo-random number generation for reproducible
    simulation runs.

    The generator is splitmix64 (used for seeding) feeding xoshiro256**.
    All experiment randomness must come through this module so that a run
    is a pure function of its seed.

    The four state words live in one 32-byte buffer, read and written in
    place, so a draw allocates nothing. *)

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

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
