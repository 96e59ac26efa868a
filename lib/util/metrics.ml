(* One registry for every subsystem's statistics.

   The design point is that hot paths keep their cost profile: a
   subsystem's existing mutable record of [s_foo <- s_foo + 1] fields
   *is* its set of pre-registered handles — the registry holds only a
   read closure over it ([register_source]) and never sits on the
   increment path. New metrics that have no record to live in get a
   direct [counter] handle (one mutable int), a sampled [gauge] (read
   at snapshot time), or a [histogram] (a [Stats.t] reduced to
   count/mean/percentiles at snapshot time).

   A snapshot is a flat, sorted [(key, value)] list with keys
   "subsystem.name", so one serializer covers every consumer: the
   vm_statistics-style syscall, the bench harness's --json writer, and
   the machsim CLI. Duplicate keys (two pagers registered under one
   name) sum. *)

type counter = { c_key : string; mutable c_value : int }
type histogram = { h_key : string; mutable h_samples : Stats.t }

type entry =
  | Counter of counter
  | Gauge of (unit -> int)
  | Histogram of histogram
  | Source of { read : unit -> (string * int) list; src_reset : (unit -> unit) option }

type registry = { mutable entries : (string * entry) list (* reverse registration order *) }
type snapshot = (string * float) list

let create () = { entries = [] }
let key ~subsystem name = subsystem ^ "." ^ name

let counter r ~subsystem name =
  let c = { c_key = key ~subsystem name; c_value = 0 } in
  r.entries <- (c.c_key, Counter c) :: r.entries;
  c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value

let gauge r ~subsystem name read = r.entries <- (key ~subsystem name, Gauge read) :: r.entries

let histogram r ~subsystem name =
  let h = { h_key = key ~subsystem name; h_samples = Stats.create () } in
  r.entries <- (h.h_key, Histogram h) :: r.entries;
  h

let observe h x = Stats.add h.h_samples x

let register_source r ~subsystem ?reset read =
  r.entries <- (subsystem, Source { read; src_reset = reset }) :: r.entries

let snapshot r =
  let acc = Hashtbl.create 64 in
  let put k v =
    Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)
  in
  List.iter
    (fun (k, entry) ->
      match entry with
      | Counter c -> put k (float_of_int c.c_value)
      | Gauge read -> put k (float_of_int (read ()))
      | Histogram h ->
        let s = h.h_samples in
        put (k ^ ".count") (float_of_int (Stats.count s));
        if Stats.count s > 0 then begin
          put (k ^ ".mean") (Stats.mean s);
          put (k ^ ".p50") (Stats.percentile s 50.0);
          put (k ^ ".p95") (Stats.percentile s 95.0);
          put (k ^ ".max") (Stats.max s)
        end
      | Source { read; _ } ->
        List.iter (fun (name, v) -> put (key ~subsystem:k name) (float_of_int v)) (read ()))
    r.entries;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset r =
  List.iter
    (fun (_, entry) ->
      match entry with
      | Counter c -> c.c_value <- 0
      | Histogram h -> h.h_samples <- Stats.create ()
      | Source { src_reset = Some f; _ } -> f ()
      | Source { src_reset = None; _ } | Gauge _ -> ())
    r.entries

let find s k = List.assoc_opt k s
let get ?(default = 0.0) s k = Option.value (find s k) ~default
let to_list (s : snapshot) = s

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
