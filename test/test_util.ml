(* Unit and property tests for mach_util: rng, stats, dlist, codec,
   table. *)

module Rng = Mach_util.Rng
module Stats = Mach_util.Stats
module Dlist = Mach_util.Dlist
module Codec = Mach_util.Codec
module Table = Mach_util.Table

let check = Alcotest.check

(* ---- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 12345 and b = Rng.create 12345 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 10 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      (* Each bucket should be within 20% of n/10. *)
      Alcotest.(check bool) "roughly uniform" true (abs (c - (n / 10)) < n / 50))
    buckets

let test_rng_zipf_skew () =
  let rng = Rng.create 11 in
  let n = 1000 in
  let hits = Array.make n 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf rng ~n ~theta:0.99 in
    Alcotest.(check bool) "zipf in range" true (v >= 0 && v < n);
    hits.(v) <- hits.(v) + 1
  done;
  (* Rank 0 must dominate the median rank. *)
  Alcotest.(check bool) "skewed head" true (hits.(0) > 20 * max 1 hits.(n / 2))

let test_rng_exponential_mean () =
  let rng = Rng.create 12 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential rng ~mean:50.0 in
    Alcotest.(check bool) "non-negative" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 50" true (abs_float (mean -. 50.0) < 3.0)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 13 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually moved" true (a <> Array.init 100 Fun.id)

(* ---- stats -------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 0.6) "p50" 50.5 (Stats.percentile s 50.0);
  check (Alcotest.float 0.01) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 0.01) "p100" 100.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1.1) "p99" 99.0 (Stats.percentile s 99.0)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Stats.mean s);
  check (Alcotest.float 0.0) "median of empty" 0.0 (Stats.median s);
  check (Alcotest.float 0.0) "stddev of empty" 0.0 (Stats.stddev s)

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check (Alcotest.float 1e-9) "known stddev" 2.0 (Stats.stddev s)

(* qcheck: the unboxed sample store answers exactly like a sorted list,
   across growth boundaries (sizes up to 100 cross 16, 32 and 64) and
   with queries between adds (the sorted cache must be invalidated). *)
let stats_prop =
  let open QCheck2 in
  let reference samples p =
    let a = Array.of_list (List.sort Float.compare samples) in
    let n = Array.length a in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    if lo = hi then a.(lo)
    else
      let w = rank -. float_of_int lo in
      (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
  in
  let agrees s samples =
    match samples with
    | [] -> Stats.count s = 0 && Stats.percentile s 50.0 = 0.0
    | _ ->
      let sorted = List.sort Float.compare samples in
      let n = List.length samples in
      Stats.count s = n
      && Stats.min s = List.hd sorted
      && Stats.max s = List.nth sorted (n - 1)
      && Stats.mean s = List.fold_left ( +. ) 0.0 samples /. float_of_int n
      && List.for_all
           (fun p -> Stats.percentile s p = reference samples p)
           [ 0.0; 1.0; 25.0; 50.0; 95.0; 99.0; 100.0 ]
  in
  Test.make ~name:"stats agrees with a sorted-list reference" ~count:300
    Gen.(pair (list_size (int_range 0 100) (float_range (-1e6) 1e6)) (int_range 0 100))
    (fun (samples, cut) ->
      let s = Stats.create () in
      let cut = min cut (List.length samples) in
      let first = List.filteri (fun i _ -> i < cut) samples in
      List.iter (Stats.add s) first;
      let mid_ok = agrees s first in
      List.iteri (fun i x -> if i >= cut then Stats.add s x) samples;
      mid_ok && agrees s samples)

let test_counters () =
  let module M = Mach_util.Metrics in
  let r = M.create () in
  let a = ref 0 and b = ref 0 in
  M.register_source r ~subsystem:"t" (fun () -> [ ("b", !b); ("a", !a) ]);
  incr a;
  b := !b + 5;
  incr a;
  let snap = M.snapshot r in
  check
    Alcotest.(list (pair string (float 1e-9)))
    "sorted snapshot"
    [ ("t.a", 2.0); ("t.b", 5.0) ]
    snap;
  check (Alcotest.float 1e-9) "missing key" 0.0 (M.get snap "t.zzz")

(* ---- dlist -------------------------------------------------------------- *)

let test_dlist_fifo () =
  let l = Dlist.create () in
  let nodes = List.init 5 Dlist.node in
  List.iter (Dlist.push_back l) nodes;
  check Alcotest.int "length" 5 (Dlist.length l);
  check Alcotest.(list int) "order" [ 0; 1; 2; 3; 4 ] (Dlist.to_list l);
  let first = Option.get (Dlist.pop_front l) in
  check Alcotest.int "fifo pop" 0 (Dlist.value first);
  check Alcotest.int "length after pop" 4 (Dlist.length l)

let test_dlist_remove_middle () =
  let l = Dlist.create () in
  let nodes = Array.init 5 Dlist.node in
  Array.iter (Dlist.push_back l) nodes;
  Dlist.remove l nodes.(2);
  check Alcotest.(list int) "middle removed" [ 0; 1; 3; 4 ] (Dlist.to_list l);
  Alcotest.(check bool) "detached" false (Dlist.attached nodes.(2));
  Dlist.remove l nodes.(0);
  Dlist.remove l nodes.(4);
  check Alcotest.(list int) "ends removed" [ 1; 3 ] (Dlist.to_list l)

let test_dlist_double_attach_rejected () =
  let l = Dlist.create () in
  let n = Dlist.node 1 in
  Dlist.push_back l n;
  Alcotest.check_raises "double attach" (Invalid_argument "Dlist.push_back: node already attached")
    (fun () -> Dlist.push_back l n)

let test_dlist_cross_list_remove_rejected () =
  let l1 = Dlist.create () and l2 = Dlist.create () in
  let n = Dlist.node 1 in
  Dlist.push_back l1 n;
  Alcotest.check_raises "wrong list" (Invalid_argument "Dlist.remove: node not on this list")
    (fun () -> Dlist.remove l2 n)

let test_dlist_push_front () =
  let l = Dlist.create () in
  Dlist.push_back l (Dlist.node 1);
  Dlist.push_front l (Dlist.node 0);
  check Alcotest.(list int) "front push" [ 0; 1 ] (Dlist.to_list l)

let test_dlist_reuse_after_remove () =
  let l = Dlist.create () in
  let n = Dlist.node 42 in
  Dlist.push_back l n;
  Dlist.remove l n;
  Dlist.push_back l n;
  check Alcotest.(list int) "reattachable" [ 42 ] (Dlist.to_list l)

(* ---- codec -------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 200;
  Codec.Enc.u16 e 40000;
  Codec.Enc.u32 e 3_000_000_000;
  Codec.Enc.int e (-123456789);
  Codec.Enc.bool e true;
  Codec.Enc.float e 3.14159;
  Codec.Enc.string e "hello";
  Codec.Enc.bytes e (Bytes.of_string "\x00\xff\x42");
  let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
  check Alcotest.int "u8" 200 (Codec.Dec.u8 d);
  check Alcotest.int "u16" 40000 (Codec.Dec.u16 d);
  check Alcotest.int "u32" 3_000_000_000 (Codec.Dec.u32 d);
  check Alcotest.int "int" (-123456789) (Codec.Dec.int d);
  check Alcotest.bool "bool" true (Codec.Dec.bool d);
  check (Alcotest.float 1e-12) "float" 3.14159 (Codec.Dec.float d);
  check Alcotest.string "string" "hello" (Codec.Dec.string d);
  check Alcotest.string "bytes" "\x00\xff\x42" (Bytes.to_string (Codec.Dec.bytes d));
  Codec.Dec.finish d

let test_codec_truncated () =
  let e = Codec.Enc.create () in
  Codec.Enc.u32 e 99;
  let b = Codec.Enc.to_bytes e in
  let d = Codec.Dec.of_bytes (Bytes.sub b 0 2) in
  Alcotest.check_raises "truncated" Codec.Dec.Truncated (fun () -> ignore (Codec.Dec.u32 d))

let test_codec_trailing () =
  let e = Codec.Enc.create () in
  Codec.Enc.u8 e 1;
  Codec.Enc.u8 e 2;
  let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
  ignore (Codec.Dec.u8 d);
  Alcotest.check_raises "trailing" Codec.Dec.Trailing_garbage (fun () -> Codec.Dec.finish d)

(* qcheck: arbitrary value sequences round-trip. *)
let codec_prop =
  let open QCheck2 in
  Test.make ~name:"codec roundtrips arbitrary field sequences" ~count:200
    Gen.(
      small_list
        (oneof
           [
             map (fun v -> `U8 (v land 0xff)) small_int;
             map (fun v -> `U16 (v land 0xffff)) small_int;
             map (fun v -> `Int v) int;
             map (fun v -> `Bool v) bool;
             map (fun v -> `Str v) string_small;
             map (fun v -> `Fl v) float;
           ]))
    (fun fields ->
      let e = Codec.Enc.create () in
      List.iter
        (function
          | `U8 v -> Codec.Enc.u8 e v
          | `U16 v -> Codec.Enc.u16 e v
          | `Int v -> Codec.Enc.int e v
          | `Bool v -> Codec.Enc.bool e v
          | `Str v -> Codec.Enc.string e v
          | `Fl v -> Codec.Enc.float e v)
        fields;
      let d = Codec.Dec.of_bytes (Codec.Enc.to_bytes e) in
      let ok =
        List.for_all
          (function
            | `U8 v -> Codec.Dec.u8 d = v
            | `U16 v -> Codec.Dec.u16 d = v
            | `Int v -> Codec.Dec.int d = v
            | `Bool v -> Codec.Dec.bool d = v
            | `Str v -> Codec.Dec.string d = v
            | `Fl v ->
              let got = Codec.Dec.float d in
              got = v || (Float.is_nan got && Float.is_nan v))
          fields
      in
      Codec.Dec.finish d;
      ok)

(* dlist qcheck: random push/pop/remove agrees with a plain-list model. *)
let dlist_prop =
  let open QCheck2 in
  Test.make ~name:"dlist matches list model under random ops" ~count:300
    Gen.(small_list (oneof [ pure `Push; pure `Pop; map (fun k -> `Remove k) small_nat ]))
    (fun ops ->
      let l = Dlist.create () in
      (* Model: nodes in queue order, oldest first. *)
      let model = ref [] in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Push ->
            incr counter;
            let n = Dlist.node !counter in
            Dlist.push_back l n;
            model := !model @ [ n ]
          | `Pop -> (
            match (Dlist.pop_front l, !model) with
            | Some n, m :: rest ->
              if n != m then ok := false;
              model := rest
            | None, [] -> ()
            | Some _, [] | None, _ :: _ -> ok := false)
          | `Remove k -> (
            match !model with
            | [] -> ()
            | _ ->
              let idx = k mod List.length !model in
              let victim = List.nth !model idx in
              Dlist.remove l victim;
              model := List.filteri (fun i _ -> i <> idx) !model))
        ops;
      !ok
      && Dlist.to_list l = List.map Dlist.value !model
      && Dlist.length l = List.length !model)

(* ---- table -------------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "col1"; "longer column" ] in
  Table.row t [ "a"; "b" ];
  Table.rowf t "%d | %s" 42 "x";
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains 42" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.index_opt l '4' <> None))

let test_table_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Table.row: cell count mismatch") (fun () ->
      Table.row t [ "only one" ])

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_different_seeds;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "counters" `Quick test_counters;
          QCheck_alcotest.to_alcotest stats_prop;
        ] );
      ( "dlist",
        [
          Alcotest.test_case "fifo" `Quick test_dlist_fifo;
          Alcotest.test_case "remove middle" `Quick test_dlist_remove_middle;
          Alcotest.test_case "double attach rejected" `Quick test_dlist_double_attach_rejected;
          Alcotest.test_case "cross-list remove rejected" `Quick test_dlist_cross_list_remove_rejected;
          Alcotest.test_case "push front" `Quick test_dlist_push_front;
          Alcotest.test_case "reuse after remove" `Quick test_dlist_reuse_after_remove;
          QCheck_alcotest.to_alcotest dlist_prop;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "truncated" `Quick test_codec_truncated;
          Alcotest.test_case "trailing garbage" `Quick test_codec_trailing;
          QCheck_alcotest.to_alcotest codec_prop;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "cell count mismatch" `Quick test_table_mismatch;
        ] );
    ]
