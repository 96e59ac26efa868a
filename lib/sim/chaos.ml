module Rng = Mach_util.Rng

type plan = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter_us : float;
}

let perfect = { drop = 0.0; duplicate = 0.0; reorder = 0.0; jitter_us = 0.0 }

module Counters = Mach_util.Metrics.Counters

let chaos_counters = Counters.layout ()
let chaos_stat = Counters.declare chaos_counters
let s_dropped = chaos_stat "dropped"
let s_duplicated = chaos_stat "duplicated"
let s_reordered = chaos_stat "reordered"
let s_partition_drops = chaos_stat "partition_drops"
let s_crash_drops = chaos_stat "crash_drops"
let s_partitions = chaos_stat "partitions"
let s_heals = chaos_stat "heals"
let s_crashes = chaos_stat "crashes"
let s_restarts = chaos_stat "restarts"

type t = {
  rng : Rng.t;
  mutable default_plan : plan;
  partitions : (int * int, unit) Hashtbl.t;
  crashed : (int, unit) Hashtbl.t;
  stats : Counters.t;
  mutable trace : Trace.t option;
  mutable on_crash : (int -> unit) list;
  mutable on_restart : (int -> unit) list;
  mutable on_heal : (int -> int -> unit) list;
}

let create ?(seed = 0x43484F53) () =
  {
    rng = Rng.create seed;
    default_plan = perfect;
    partitions = Hashtbl.create 8;
    crashed = Hashtbl.create 4;
    stats = Counters.create chaos_counters;
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

let set_default_plan t plan = t.default_plan <- plan
let plan_for t ~src:_ ~dst:_ = t.default_plan

let link a b = (min a b, max a b)

let partition t a b =
  if not (Hashtbl.mem t.partitions (link a b)) then begin
    Hashtbl.replace t.partitions (link a b) ();
    Counters.incr t.stats s_partitions;
    point t (Printf.sprintf "partition h%d|h%d" a b)
  end

let heal t a b =
  if Hashtbl.mem t.partitions (link a b) then begin
    Hashtbl.remove t.partitions (link a b);
    Counters.incr t.stats s_heals;
    point t (Printf.sprintf "heal h%d|h%d" a b);
    List.iter (fun f -> f a b) (List.rev t.on_heal)
  end

let partitioned t a b = Hashtbl.mem t.partitions (link a b)
let host_up t h = not (Hashtbl.mem t.crashed h)

let crash_host t h =
  if host_up t h then begin
    Hashtbl.replace t.crashed h ();
    Counters.incr t.stats s_crashes;
    point t (Printf.sprintf "crash h%d" h);
    List.iter (fun f -> f h) (List.rev t.on_crash)
  end

let restart_host t h =
  if not (host_up t h) then begin
    Hashtbl.remove t.crashed h;
    Counters.incr t.stats s_restarts;
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
    Counters.incr t.stats s_crash_drops;
    point t (Printf.sprintf "crash_drop h%d->h%d" src dst);
    Dropped `Host_down
  end
  else if partitioned t src dst then begin
    Counters.incr t.stats s_partition_drops;
    point t (Printf.sprintf "partition_drop h%d->h%d" src dst);
    Dropped `Partitioned
  end
  else begin
    let plan = plan_for t ~src ~dst in
    if plan.drop > 0.0 && Rng.float t.rng 1.0 < plan.drop then begin
      Counters.incr t.stats s_dropped;
      point t (Printf.sprintf "drop h%d->h%d" src dst);
      Dropped `Fault
    end
    else begin
      let copies =
        if plan.duplicate > 0.0 && Rng.float t.rng 1.0 < plan.duplicate then begin
          Counters.incr t.stats s_duplicated;
          point t (Printf.sprintf "duplicate h%d->h%d" src dst);
          2
        end
        else 1
      in
      let extra_delay_us =
        if plan.reorder > 0.0 && Rng.float t.rng 1.0 < plan.reorder then begin
          Counters.incr t.stats s_reordered;
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

let faults_injected t =
  let n = Counters.get t.stats in
  n s_dropped + n s_duplicated + n s_reordered + n s_partition_drops + n s_crash_drops
