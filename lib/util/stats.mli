(** Running statistics and sample collections for experiment reporting. *)

type t
(** A sample accumulator retaining every observation (for exact
    percentiles), unboxed in a float array that doubles when full: 8 bytes
    per sample, so memory still grows with the number of observations. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of the samples; 0 when empty. *)

val stddev : t -> float
(** Population standard deviation; 0 when fewer than two samples. *)

val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 100\]], linear interpolation.
    0 when empty. *)

val median : t -> float

(* Named counters and latency histograms live in {!Metrics}. *)
