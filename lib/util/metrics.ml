(* One registry for every subsystem's statistics.

   The design point is that hot paths keep their cost profile: a
   subsystem's existing mutable record of [s_foo <- s_foo + 1] fields
   *is* its set of pre-registered handles — the registry holds only a
   read closure over it ([register_source]) and never sits on the
   increment path. New metrics that have no record to live in get a
   sampled [gauge] (read at snapshot time) or a [histogram] (a
   [Stats.t] reduced to count/mean/percentiles at snapshot time).

   A snapshot is a flat, sorted [(key, value)] list with keys
   "subsystem.name", so one serializer covers every consumer: the
   vm_statistics-style syscall, the bench harness's --json writer, and
   the machsim CLI. Duplicate keys (two pagers registered under one
   name) sum. *)

type histogram = Stats.t

type entry =
  | Gauge of (unit -> int)
  | Histogram of histogram
  | Source of (unit -> (string * int) list)

type registry = { mutable entries : (string * entry) list (* reverse registration order *) }
type snapshot = (string * float) list

let create () = { entries = [] }
let key ~subsystem name = subsystem ^ "." ^ name

let gauge r ~subsystem name read = r.entries <- (key ~subsystem name, Gauge read) :: r.entries

let histogram r ~subsystem name =
  let h = Stats.create () in
  r.entries <- (key ~subsystem name, Histogram h) :: r.entries;
  h

let observe = Stats.add

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
      | Histogram s ->
        put (k ^ ".count") (float_of_int (Stats.count s));
        if Stats.count s > 0 then begin
          put (k ^ ".mean") (Stats.mean s);
          put (k ^ ".p50") (Stats.percentile s 50.0);
          put (k ^ ".p95") (Stats.percentile s 95.0);
          put (k ^ ".max") (Stats.max s)
        end
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
