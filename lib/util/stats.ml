(* Samples live unboxed in the first [n] slots of a float array that
   doubles when full; the sorted copy is cached until the next add. *)
type t = {
  mutable samples : Float.Array.t;
  mutable sorted : Float.Array.t option; (* cache, invalidated on add *)
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable mn : float;
  mutable mx : float;
}

let create () =
  { samples = Float.Array.create 16; sorted = None; n = 0; sum = 0.0; sum_sq = 0.0;
    mn = infinity; mx = neg_infinity }

let add t x =
  let cap = Float.Array.length t.samples in
  if t.n = cap then begin
    let grown = Float.Array.create (2 * cap) in
    Float.Array.blit t.samples 0 grown 0 cap;
    t.samples <- grown
  end;
  Float.Array.set t.samples t.n x;
  t.sorted <- None;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  t.sum_sq <- t.sum_sq +. (x *. x);
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let stddev t =
  if t.n < 2 then 0.0
  else
    let m = mean t in
    let v = (t.sum_sq /. float_of_int t.n) -. (m *. m) in
    if v <= 0.0 then 0.0 else sqrt v

let min t = if t.n = 0 then 0.0 else t.mn
let max t = if t.n = 0 then 0.0 else t.mx

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Float.Array.sub t.samples 0 t.n in
    Float.Array.sort Float.compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let a = sorted t in
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then Float.Array.get a lo
    else
      let w = rank -. float_of_int lo in
      (Float.Array.get a lo *. (1.0 -. w)) +. (Float.Array.get a hi *. w)
  end

let median t = percentile t 50.0
