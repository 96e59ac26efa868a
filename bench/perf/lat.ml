(* Latency samples in one unboxed float array, sized up front from the
   workload's known operation count, with exact percentiles.

   Mach_util.Stats keeps a boxed list per sample; at a million samples
   that list alone would dominate the benchmark's peak heap, which is
   one of the metrics being measured. *)

type t = { mutable data : Float.Array.t; mutable n : int }

let create capacity = { data = Float.Array.create (max 16 capacity); n = 0 }

let add t v =
  if t.n = Float.Array.length t.data then begin
    let bigger = Float.Array.create (2 * t.n) in
    Float.Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  Float.Array.unsafe_set t.data t.n v;
  t.n <- t.n + 1

let count t = t.n
let get t i = Float.Array.get t.data i

let sorted t =
  let a = Float.Array.sub t.data 0 t.n in
  Float.Array.sort Float.compare a;
  a

(* Parzen's mid-quantile. Simulated latencies tie heavily (many ops take
   exactly one fixed path cost), and a plain order statistic then pins a
   percentile to that one cost for every seed, hiding shifts in how many
   ops fall on either side of it. The mid-quantile places each distinct
   value v at the middle of its step of the empirical CDF,
   F(v-) + P(X = v) / 2, and interpolates linearly between those points,
   so it moves continuously with the distribution; on tie-free samples it
   interpolates between neighbouring order statistics. *)
let percentile_of_sorted a p =
  let n = Float.Array.length a in
  let target = p /. 100.0 *. float_of_int n in
  let rec walk i prev_v prev_mid =
    if i >= n then prev_v
    else begin
      let v = Float.Array.get a i in
      let j = ref i in
      while !j < n && Float.Array.get a !j = v do
        incr j
      done;
      let mid = float_of_int i +. (float_of_int (!j - i) /. 2.0) in
      if mid < target then walk !j v mid
      else if i = 0 then v
      else prev_v +. ((target -. prev_mid) /. (mid -. prev_mid) *. (v -. prev_v))
    end
  in
  if n = 0 then 0.0 else walk 0 0.0 0.0

let percentile t p = percentile_of_sorted (sorted t) p

(* How many samples lie strictly above the [p]th percentile: the tail a
   percentile rests on (the benchmark reports p99 only with >= 10). *)
let beyond_of_sorted a p =
  let q = percentile_of_sorted a p in
  let k = ref 0 in
  let i = ref (Float.Array.length a - 1) in
  while !i >= 0 && Float.Array.get a !i > q do
    incr k;
    decr i
  done;
  !k
