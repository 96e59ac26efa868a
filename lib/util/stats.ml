type t = {
  mutable samples : float list;
  mutable sorted : float array option; (* cache, invalidated on add *)
  mutable n : int;
  mutable sum : float;
  mutable sum_sq : float;
  mutable mn : float;
  mutable mx : float;
}

let create () =
  { samples = []; sorted = None; n = 0; sum = 0.0; sum_sq = 0.0; mn = infinity; mx = neg_infinity }

let add t x =
  t.samples <- x :: t.samples;
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
    let a = Array.of_list t.samples in
    Array.sort compare a;
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
    if lo = hi then a.(lo)
    else
      let w = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
  end

let median t = percentile t 50.0
