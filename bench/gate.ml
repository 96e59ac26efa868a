(* The bench regression gate: checks a harness `--json` run against the
   committed BENCH_eNN.json baselines, one declarative spec per experiment.

   Usage: gate.exe CURRENT BASELINE...

   Every experiment with a section in some BASELINE is checked against
   the CURRENT section of the same id. Prints an ok/FAIL line per check
   and exits 1 if any failed, after listing the reg.* counters that moved
   most in each failing experiment. *)

module Metrics = Mach_util.Metrics

type cmp = Ge | Le | Eq

type bound =
  | Const of float
  | Base of float  (* this fraction of the subject's baseline value *)
  | Cur of string  (* a key of the current run *)
  | Sum of bound list
  | Max of bound * bound

(* The subject is a current key, or several joined by " + " (summed). *)
type check = { subject : string; cmp : cmp; bound : bound }

let ge subject bound = { subject; cmp = Ge; bound }
let le subject bound = { subject; cmp = Le; bound }
let eq subject bound = { subject; cmp = Eq; bound }

(* Runs are deterministic, so the slack over a baseline (0.8 of it for a
   floor, 1.25 for a ceiling) only covers intentional cost-model
   retuning; larger moves re-baseline deliberately. *)
let spec = [
  ( "E3", [
    (* A copy-vs-map crossover exists (-1: copy never lost), at 64 KB
       at the latest, and a mapped send copies nothing eagerly. *)
    ge "crossover_bytes" (Const 1.0);
    le "crossover_bytes" (Const 65536.0);
    eq "map_send_bytes_copied_1048576" (Const 0.0);
    ge "copy_over_map_1048576" (Base 0.8);
    (* Clustered COW keeps writing a mapped-in 1 MB region below one
       fault+copy per page. *)
    le "map_write_us_1048576" (Base 1.25);
  ] );
  ( "E5", [
    ge "fault_storm_speedup_4" (Const 1.5);
    ge "fault_storm_speedup_max" (Base 0.8);
    ge "handoff_saving_us_per_rpc" (Const 1.0);
    ge "pingpong_handoff_rate" (Const 0.9);
    (* With both CPUs busy, donations still reach their receivers and
       still pay off. *)
    ge "saturated_handoff_claim_ratio" (Const 0.9);
    ge "saturated_handoff_saving_us_per_rpc" (Const 1.0);
  ] );
  ( "E6", [
    (* Every remote message rode the sequenced channel: one ack per data
       packet, nothing else on the wire, and no spurious retransmit on a
       lossless one. *)
    ge "reg.chan.data_pkts" (Const 1.0);
    eq "reg.chan.acks" (Cur "reg.chan.data_pkts");
    eq "reg.chan.retransmits" (Const 0.0);
    eq "reg.net.messages" (Sum [ Cur "reg.chan.data_pkts"; Cur "reg.chan.acks" ]);
    (* A demanded read downgrades a writer instead of flushing it: no
       refetch the baseline avoided. *)
    le "reg.vm.data_requests" (Base 1.0);
  ] );
  ( "E9", [
    (* The §6 local defenses hold, and nothing hangs or fails. *)
    ge "pager_deaths" (Const 1.0);
    ge "death_errors" (Const 1.0);
    eq "blocked_workers" (Const 0.0);
    eq "sweep_failures" (Const 0.0);
    eq "dup_failures" (Const 0.0);
    eq "partition_failures" (Const 0.0);
    eq "migration_failures" (Const 0.0);
    eq "migration_coherent" (Const 1.0);
    (* Faults were injected and the defenses (dedup window, crash
       recovery) engaged, with no spurious channel-down. *)
    ge "reg.chaos.dropped" (Const 1.0);
    ge "dup_injected" (Const 1.0);
    ge "dup_dropped" (Const 1.0);
    ge "crash_pager_deaths" (Const 1.0);
    eq "reg.chan.aborts" (Const 0.0);
    (* Every wire-level fault is accounted for in chaos.* metrics. *)
    eq "reg.net.dropped"
      (Sum [ Cur "reg.chaos.dropped"; Cur "reg.chaos.partition_drops"; Cur "reg.chaos.crash_drops" ]);
    eq "reg.net.duplicated" (Cur "reg.chaos.duplicated");
    eq "reg.net.retransmits" (Cur "reg.chan.retransmits");
    (* Retransmission stays proportionate and the heal converges. *)
    le "loss10_retransmits" (Max (Const 20.0, Base 4.0));
    le "partition_convergence_us" (Max (Const 500_000.0, Base 3.0));
  ] );
  ( "E10", [
    (* Span ledger: balanced, and one span per fault. *)
    ge "spans_opened" (Const 1.0);
    eq "spans_opened" (Cur "spans_closed");
    eq "reg.vm.faults" (Cur "spans_opened");
    (* Each of the 25 rounds per phase resolved the driven way; COW
       faults cluster up to 8 pages, so 25/8 spans at least. *)
    ge "via_zero_fill" (Const 25.0);
    ge "via_cow_copy" (Const (25.0 /. 8.0));
    ge "via_cow_copy + reg.vm.cow_batched" (Const 25.0);
    ge "via_pager" (Const 25.0);
    ge "via_fast" (Const 25.0);
    ge "via_clean_hit" (Const 1.0);
    (* An external-pager fault pays an IPC round trip on top. *)
    ge "ext_us" (Sum [ Cur "zf_us"; Const 0.001 ]);
    ge "ext_us" (Sum [ Cur "soft_us"; Const 0.001 ]);
    le "zf_us" (Base 1.25);
    le "soft_us" (Base 1.25);
    le "cow_us" (Base 1.25);
    le "ext_us" (Base 1.25);
    le "wb_us" (Base 1.25);
  ] );
  ( "E11", [
    (* Fork cost is flat in region size (64 .. 4096 pages). *)
    le "fork_flatness" (Const 1.5);
    le "fork_us_4096" (Base 1.25);
    (* Generations steal exclusive pages instead of copying them,
       and never accrete shadow-chain depth. *)
    ge "cow_steals" (Const 1.0);
    ge "steal_rate" (Base 0.8);
    (* Scattered writes copy only the pages they write: no copy-ahead
       past what the baseline copies. *)
    le "cow_copies" (Base 1.0);
    le "gen_depth_peak" (Const 2.0);
    ge "collapses" (Cur "generations");
  ] );
  ( "E13", [
    (* The §7 duality: messages are the cheap mechanism on a NORMA,
       shared memory on a UMA. *)
    le "norma_messages_us_4096" (Cur "norma_shared_us_4096");
    le "uma_shared_us_1024" (Cur "uma_messages_us_1024");
    le "norma_messages_us_4096" (Base 1.25);
    le "norma_shared_us_4096" (Base 1.25);
    le "uma_shared_us_1024" (Base 1.25);
    le "uma_messages_us_1024" (Base 1.25);
  ] );
]

(* The harness's layout: a `"E3": {` line opens each experiment's
   section, then one `"key": number` pair per line. *)
let read path =
  In_channel.with_open_text path @@ fun ic ->
  let rec loop sections =
    match In_channel.input_line ic with
    | None -> List.rev_map (fun (id, kvs) -> (id, List.rev kvs)) sections
    | Some line -> (
      match Scanf.sscanf line " %S : %s@," (fun k v -> (k, v)) with
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> loop sections
      | id, "{" -> loop ((id, []) :: sections)
      | k, v -> (
        match (sections, float_of_string_opt v) with
        | (id, kvs) :: rest, Some f -> loop ((id, (k, f) :: kvs) :: rest)
        | _ -> loop sections))
  in
  loop []

exception Missing of string

let value section key =
  match List.assoc_opt key section with Some v -> v | None -> raise (Missing key)

let subject_value section subject =
  String.split_on_char '+' subject
  |> List.fold_left (fun acc key -> acc +. value section (String.trim key)) 0.0

let rec eval ~base ~cur subject = function
  | Const c -> c
  | Base f -> f *. subject_value base subject
  | Cur key -> value cur key
  | Sum bs -> List.fold_left (fun acc b -> acc +. eval ~base ~cur subject b) 0.0 bs
  | Max (a, b) -> Float.max (eval ~base ~cur subject a) (eval ~base ~cur subject b)

let rec show = function
  | Const c -> Printf.sprintf "%g" c
  | Base f -> Printf.sprintf "%g x baseline" f
  | Cur key -> key
  | Sum bs -> String.concat " + " (List.map show bs)
  | Max (a, b) -> Printf.sprintf "max(%s, %s)" (show a) (show b)

(* Print the check's ok/FAIL line; true when it held. *)
let run_check id ~base ~cur c =
  let op, what =
    match c.cmp with Ge -> (">=", "floor") | Le -> ("<=", "ceiling") | Eq -> ("=", "expected")
  in
  let line = Printf.sprintf "%s %s %s %s" id c.subject op (show c.bound) in
  match (subject_value cur c.subject, eval ~base ~cur c.subject c.bound) with
  | exception Missing key ->
    Printf.printf "FAIL %s: missing key %S\n" line key;
    false
  | v, b ->
    let held = match c.cmp with Ge -> v >= b | Le -> v <= b | Eq -> v = b in
    Printf.printf "%s %s: %.3f (%s %.3f)\n" (if held then "ok  " else "FAIL") line v what b;
    held

(* The five reg.* counters with the largest |change| since the baseline. *)
let print_moved ~base ~cur =
  let reg = List.filter (fun (k, _) -> String.starts_with ~prefix:"reg." k) in
  let base = reg base in
  Metrics.delta ~before:base ~after:(reg cur)
  |> List.filter (fun (_, d) -> d <> 0.0)
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare (Float.abs b) (Float.abs a))
  |> List.filteri (fun i _ -> i < 5)
  |> List.iter (fun (k, d) ->
         Printf.printf "  moved %s: %+.3f (baseline %.3f)\n" k d (Metrics.get base k))

let () =
  match Array.to_list Sys.argv with
  | _ :: current :: (_ :: _ as baselines) ->
    let current = read current in
    let checked = ref 0 and failed = ref 0 in
    List.iter
      (fun (id, base) ->
        let cur = Option.value (List.assoc_opt id current) ~default:[] in
        match List.assoc_opt id spec with
        | None ->
          Printf.printf "FAIL %s: no checks in the gate's spec\n" id;
          incr failed
        | Some checks ->
          let bad = List.filter (fun c -> not (run_check id ~base ~cur c)) checks in
          checked := !checked + List.length checks;
          failed := !failed + List.length bad;
          if bad <> [] then print_moved ~base ~cur)
      (List.concat_map read baselines);
    if !failed > 0 then begin
      Printf.printf "gate: %d of %d checks failed\n" !failed !checked;
      exit 1
    end;
    Printf.printf "gate: all %d checks ok\n" !checked
  | _ ->
    prerr_endline "usage: gate.exe CURRENT BASELINE...";
    exit 2
