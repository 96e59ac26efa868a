(* E5 regression gate: compare a freshly produced `--json` run of the
   multiprocessor-scaling experiment against the committed baseline
   (BENCH_e05.json) and fail if the scheduler's scaling or the handoff
   advantage regressed.

   Usage: check_e05 BASELINE CURRENT *)

open Check_common

(* The absolute acceptance floor for fault-storm speedup at 4 CPUs, and
   the tolerated fraction of the recorded baseline for the max-CPU
   speedup (run-to-run numbers are deterministic, so the slack only
   covers intentional cost-model retuning; larger drops must update the
   committed baseline deliberately). *)
let abs_floor_4cpu = 1.5
let baseline_fraction = 0.8

let () =
  (match Sys.argv with
  | [| _; baseline_path; current_path |] ->
    let baseline = parse baseline_path in
    let current = parse current_path in
    let b_max = get baseline baseline_path "fault_storm_speedup_max" in
    let c_max = get current current_path "fault_storm_speedup_max" in
    let c_4 = get current current_path "fault_storm_speedup_4" in
    let saving = get current current_path "handoff_saving_us_per_rpc" in
    let rate = get current current_path "pingpong_handoff_rate" in
    let sat_ratio = get current current_path "saturated_handoff_claim_ratio" in
    let sat_saving = get current current_path "saturated_handoff_saving_us_per_rpc" in
    if !failures = 0 then begin
      check_ge "fault_storm_speedup_4 (absolute)" c_4 abs_floor_4cpu;
      check_ge
        (Printf.sprintf "fault_storm_speedup_max vs baseline %.3f" b_max)
        c_max (baseline_fraction *. b_max);
      check_ge "handoff_saving_us_per_rpc" saving 1.0;
      check_ge "pingpong_handoff_rate" rate 0.9;
      (* With both CPUs busy, donations must still reach their receivers
         and still pay off. *)
      check_ge "saturated_handoff_claim_ratio" sat_ratio 0.9;
      check_ge "saturated_handoff_saving_us_per_rpc" sat_saving 1.0
    end
  | _ -> usage "check_e05");
  finish "E5 scaling within recorded floors"
