module Rng = Mach_util.Rng

type plan = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter_us : float;
}

let perfect = { drop = 0.0; duplicate = 0.0; reorder = 0.0; jitter_us = 0.0 }

type stats = {
  mutable s_dropped : int;
  mutable s_duplicated : int;
  mutable s_reordered : int;
  mutable s_partition_drops : int;
  mutable s_crash_drops : int;
  mutable s_partitions : int;
  mutable s_heals : int;
  mutable s_crashes : int;
  mutable s_restarts : int;
}

let fresh_stats () =
  {
    s_dropped = 0;
    s_duplicated = 0;
    s_reordered = 0;
    s_partition_drops = 0;
    s_crash_drops = 0;
    s_partitions = 0;
    s_heals = 0;
    s_crashes = 0;
    s_restarts = 0;
  }

type t = {
  rng : Rng.t;
  plans : (int * int, plan) Hashtbl.t;
  mutable default_plan : plan;
  partitions : (int * int, unit) Hashtbl.t;
  crashed : (int, unit) Hashtbl.t;
  stats : stats;
  mutable trace : Trace.t option;
  mutable on_crash : (int -> unit) list;
  mutable on_restart : (int -> unit) list;
  mutable on_heal : (int -> int -> unit) list;
}

let create ?(seed = 0x43484F53) () =
  {
    rng = Rng.create seed;
    plans = Hashtbl.create 16;
    default_plan = perfect;
    partitions = Hashtbl.create 8;
    crashed = Hashtbl.create 4;
    stats = fresh_stats ();
    trace = None;
    on_crash = [];
    on_restart = [];
    on_heal = [];
  }

let set_trace t tr = t.trace <- tr
let stats t = t.stats

let point t label =
  match t.trace with
  | Some tr when Trace.enabled tr -> Trace.point tr ~subsystem:"chaos" label
  | Some _ | None -> ()

let set_plan t ~src ~dst plan = Hashtbl.replace t.plans (src, dst) plan

let set_default_plan t plan = t.default_plan <- plan
let plan_for t ~src ~dst =
  match Hashtbl.find_opt t.plans (src, dst) with Some p -> p | None -> t.default_plan

let link a b = (min a b, max a b)

let partition t a b =
  if not (Hashtbl.mem t.partitions (link a b)) then begin
    Hashtbl.replace t.partitions (link a b) ();
    t.stats.s_partitions <- t.stats.s_partitions + 1;
    point t (Printf.sprintf "partition h%d|h%d" a b)
  end

let heal t a b =
  if Hashtbl.mem t.partitions (link a b) then begin
    Hashtbl.remove t.partitions (link a b);
    t.stats.s_heals <- t.stats.s_heals + 1;
    point t (Printf.sprintf "heal h%d|h%d" a b);
    List.iter (fun f -> f a b) (List.rev t.on_heal)
  end

let partitioned t a b = Hashtbl.mem t.partitions (link a b)
let host_up t h = not (Hashtbl.mem t.crashed h)

let crash_host t h =
  if host_up t h then begin
    Hashtbl.replace t.crashed h ();
    t.stats.s_crashes <- t.stats.s_crashes + 1;
    point t (Printf.sprintf "crash h%d" h);
    List.iter (fun f -> f h) (List.rev t.on_crash)
  end

let restart_host t h =
  if not (host_up t h) then begin
    Hashtbl.remove t.crashed h;
    t.stats.s_restarts <- t.stats.s_restarts + 1;
    point t (Printf.sprintf "restart h%d" h);
    List.iter (fun f -> f h) (List.rev t.on_restart)
  end

let on_crash t f = t.on_crash <- f :: t.on_crash
let on_restart t f = t.on_restart <- f :: t.on_restart
let on_heal t f = t.on_heal <- f :: t.on_heal

type verdict =
  | Deliver of { copies : int; extra_delay_us : float }
  | Dropped of [ `Fault | `Partitioned | `Host_down ]

(* One verdict per fabric message. RNG draws happen in a fixed order
   (drop, duplicate, reorder) so a run is a pure function of the seed
   and the message sequence. *)
let judge t ~src ~dst =
  if not (host_up t src && host_up t dst) then begin
    t.stats.s_crash_drops <- t.stats.s_crash_drops + 1;
    point t (Printf.sprintf "crash_drop h%d->h%d" src dst);
    Dropped `Host_down
  end
  else if partitioned t src dst then begin
    t.stats.s_partition_drops <- t.stats.s_partition_drops + 1;
    point t (Printf.sprintf "partition_drop h%d->h%d" src dst);
    Dropped `Partitioned
  end
  else begin
    let plan = plan_for t ~src ~dst in
    if plan.drop > 0.0 && Rng.float t.rng 1.0 < plan.drop then begin
      t.stats.s_dropped <- t.stats.s_dropped + 1;
      point t (Printf.sprintf "drop h%d->h%d" src dst);
      Dropped `Fault
    end
    else begin
      let copies =
        if plan.duplicate > 0.0 && Rng.float t.rng 1.0 < plan.duplicate then begin
          t.stats.s_duplicated <- t.stats.s_duplicated + 1;
          point t (Printf.sprintf "duplicate h%d->h%d" src dst);
          2
        end
        else 1
      in
      let extra_delay_us =
        if plan.reorder > 0.0 && Rng.float t.rng 1.0 < plan.reorder then begin
          t.stats.s_reordered <- t.stats.s_reordered + 1;
          point t (Printf.sprintf "reorder h%d->h%d" src dst);
          (* Enough delay to let later traffic overtake this message. *)
          Rng.float t.rng (Float.max plan.jitter_us 1.0)
        end
        else 0.0
      in
      Deliver { copies; extra_delay_us }
    end
  end

(* Fault-plan grammar: "seed=7,drop=0.1,dup=0.05,reorder=0.1,jitter=500"
   — every key optional, the resulting plan applies to every link. *)
let of_spec spec =
  let seed = ref 0x43484F53 in
  let plan = ref perfect in
  String.split_on_char ',' spec
  |> List.iter (fun kv ->
         match String.index_opt kv '=' with
         | None -> ()
         | Some i ->
           let k = String.trim (String.sub kv 0 i) in
           let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
           let f () = float_of_string v in
           (match k with
           | "seed" -> seed := int_of_string v
           | "drop" -> plan := { !plan with drop = f () }
           | "dup" | "duplicate" -> plan := { !plan with duplicate = f () }
           | "reorder" -> plan := { !plan with reorder = f () }
           | "jitter" | "jitter_us" -> plan := { !plan with jitter_us = f () }
           | _ -> invalid_arg ("Chaos.of_spec: unknown key " ^ k)));
  let t = create ~seed:!seed () in
  set_default_plan t !plan;
  t

let stats_to_list t =
  let s = t.stats in
  [
    ("dropped", s.s_dropped);
    ("duplicated", s.s_duplicated);
    ("reordered", s.s_reordered);
    ("partition_drops", s.s_partition_drops);
    ("crash_drops", s.s_crash_drops);
    ("partitions", s.s_partitions);
    ("heals", s.s_heals);
    ("crashes", s.s_crashes);
    ("restarts", s.s_restarts);
  ]

let faults_injected t =
  let s = t.stats in
  s.s_dropped + s.s_duplicated + s.s_reordered + s.s_partition_drops + s.s_crash_drops
