(* One registry for every subsystem's statistics.

   The design point is that hot paths keep their cost profile. A
   subsystem declares its counters once, as a [Counters] layout; each
   instance is an [int array], an increment is one bounds-checked store,
   and the registry reads the array only at snapshot time. Metrics that
   are not counts get a sampled [gauge] (read at snapshot time) or a
   [histogram] (a fixed array of log buckets reduced to
   count/mean/percentiles at snapshot time).

   A snapshot is a flat, sorted [(key, value)] list with keys
   "subsystem.name", so one serializer covers every consumer: the
   vm_statistics-style syscall, the bench harness's --json writer, and
   the machsim CLI. Duplicate keys (two disks of one host, two pagers
   registered under one name) sum. *)

module Counters = struct
  (* A layout grows while its module initialises; [create] fixes a
     block's names to those declared so far. *)
  type layout = { mutable rev_names : string list }
  type id = int
  type t = { names : string array; v : int array }

  let layout () = { rev_names = [] }

  let declare l name =
    if List.mem name l.rev_names then invalid_arg ("Metrics.Counters.declare: duplicate " ^ name);
    l.rev_names <- name :: l.rev_names;
    List.length l.rev_names - 1

  let create l =
    let names = Array.of_list (List.rev l.rev_names) in
    { names; v = Array.make (Array.length names) 0 }

  let incr t i = t.v.(i) <- t.v.(i) + 1
  let add t i n = t.v.(i) <- t.v.(i) + n
  let peak t i n = if n > t.v.(i) then t.v.(i) <- n
  let get t i = t.v.(i)

  let value t name =
    match Array.find_index (String.equal name) t.names with
    | Some i -> t.v.(i)
    | None -> invalid_arg ("Metrics.Counters.value: unknown counter " ^ name)

  let to_list t = Array.to_list (Array.mapi (fun i name -> (name, t.v.(i))) t.names)
  let reset t = Array.fill t.v 0 (Array.length t.v) 0
end

(* A histogram is a fixed array of log buckets, 64 per octave, so a
   kernel that faults for hours holds the same 3 k ints as one that
   faulted once. A positive float's bits, shifted right by 46, are its
   biased exponent and the top 6 bits of its mantissa: that key is
   monotone in the value and is the bucket's index, with no [frexp]
   (which allocates a tuple). Bucket 0 takes everything below
   [2^lo_exp]; the last takes everything from [2^hi_exp] up. Count,
   sum, min and max are kept exactly. *)
let sub_bits = 6
let lo_exp = -8
let hi_exp = 40
let key_shift = 52 - sub_bits
let key_of_exp e = (e + 1023) lsl sub_bits
let lo_key = key_of_exp lo_exp
let buckets = key_of_exp hi_exp - lo_key + 1
let lo_value = Float.ldexp 1.0 lo_exp

(* The float fields live in their own all-float record, which OCaml
   stores flat: updating them allocates nothing. *)
type moments = { mutable sum : float; mutable mn : float; mutable mx : float }
type histogram = { counts : int array; mutable n : int; m : moments }

let bucket v =
  if v < lo_value then 0
  else
    let key = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) key_shift) in
    if key - lo_key >= buckets then buckets - 1 else key - lo_key

(* Every value in bucket [i] (0 < i) is at least this, and within 1/64
   of it relative; integers up to 128 are lower bounds exactly. *)
let lower_bound i =
  if i = 0 then neg_infinity
  else Int64.float_of_bits (Int64.shift_left (Int64.of_int (i + lo_key)) key_shift)

let make_histogram () =
  { counts = Array.make buckets 0; n = 0; m = { sum = 0.0; mn = infinity; mx = neg_infinity } }

let observe h v =
  let i = bucket v in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  let m = h.m in
  m.sum <- m.sum +. v;
  if v < m.mn then m.mn <- v;
  if v > m.mx then m.mx <- v

(* The [k]-th smallest sample (0-based), read as its bucket's lower
   bound clamped to the exact extremes. *)
let order_statistic h k =
  let rec find i seen =
    let seen = seen + h.counts.(i) in
    if seen > k then i else find (i + 1) seen
  in
  Float.min h.m.mx (Float.max h.m.mn (lower_bound (find 0 0)))

(* [Stats.percentile]'s rule: interpolate between the order statistics
   either side of rank p/100 * (n - 1). *)
let percentile h p =
  if h.n = 0 then 0.0
  else begin
    let rank = p /. 100.0 *. float_of_int (h.n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then order_statistic h lo
    else
      let w = rank -. float_of_int lo in
      (order_statistic h lo *. (1.0 -. w)) +. (order_statistic h hi *. w)
  end

type entry =
  | Gauge of (unit -> int)
  | Histogram of histogram
  | Counters of Counters.t
  | Source of (unit -> (string * int) list)

type registry = { mutable entries : (string * entry) list (* reverse registration order *) }
type snapshot = (string * float) list

let create () = { entries = [] }
let key ~subsystem name = subsystem ^ "." ^ name

let gauge r ~subsystem name read = r.entries <- (key ~subsystem name, Gauge read) :: r.entries

let histogram r ~subsystem name =
  let h = make_histogram () in
  r.entries <- (key ~subsystem name, Histogram h) :: r.entries;
  h

let counters r ~subsystem block = r.entries <- (subsystem, Counters block) :: r.entries
let register_source r ~subsystem read = r.entries <- (subsystem, Source read) :: r.entries

let snapshot r =
  let acc = Hashtbl.create 64 in
  let put k v =
    Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)
  in
  List.iter
    (fun (k, entry) ->
      match entry with
      | Gauge read -> put k (float_of_int (read ()))
      | Histogram h ->
        put (k ^ ".count") (float_of_int h.n);
        if h.n > 0 then begin
          put (k ^ ".mean") (h.m.sum /. float_of_int h.n);
          put (k ^ ".p50") (percentile h 50.0);
          put (k ^ ".p95") (percentile h 95.0);
          put (k ^ ".max") h.m.mx
        end
      | Counters b ->
        Array.iteri (fun i name -> put (key ~subsystem:k name) (float_of_int b.Counters.v.(i))) b.names
      | Source read ->
        List.iter (fun (name, v) -> put (key ~subsystem:k name) (float_of_int v)) (read ()))
    r.entries;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find s k = List.assoc_opt k s
let get ?(default = 0.0) s k = Option.value (find s k) ~default

let delta ~before ~after =
  List.map (fun (k, v) -> (k, v -. get before k)) after

let merge snapshots =
  let acc = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)))
    snapshots;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Integers print without a fraction so counter values stay readable;
   everything else keeps three decimals. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let to_json ?(indent = 2) s =
  let pad = String.make indent ' ' in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{";
  let n = List.length s in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "\n%s%S: %s%s" pad k (json_number v) (if i = n - 1 then "" else ",")))
    s;
  Buffer.add_string buf ("\n" ^ String.make (max 0 (indent - 2)) ' ' ^ "}");
  Buffer.contents buf
