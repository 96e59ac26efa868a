(* Processor scheduler for the discrete-event engine.

   A [t] models the processors of one host. Simulated threads do not
   occupy a CPU while blocked on I/O or IPC; they occupy one only for
   the duration of a compute burst ([compute]). A burst:

   - acquires a processor: the thread's *home* CPU (the one it last
     ran on) if idle, else any idle CPU (a migration), else
     it enqueues on its home CPU's run queue and blocks;
   - runs in quantum-sized slices; at each slice boundary, if the run
     queue of its CPU is non-empty, the burst is preempted: it requeues
     itself at the tail and the head waiter is dispatched;
   - on completion, dispatches the next local waiter, or *steals* the
     oldest waiter from the longest other run queue, so no processor
     idles while any thread is runnable.

   Every dispatch off a run queue (and every preemption resume) charges
   [context_switch_us] to the incoming thread; taking an idle processor
   directly is free — the idle loop has nothing to save.

   Tenure: a thread that paid that charge keeps its processor across
   back-to-back bursts until it has run one context-switch time, the
   same bound the handoff window uses (switching away before the paid
   switch is used up costs more than the work it interleaves; the
   2-competitive spin-then-block rule). At the end of such a burst the
   processor is *held*, still occupied by the thread, instead of
   re-dispatched; the thread's next burst re-enters it with no queueing.
   A holder that blocks instead gives the processor up at that instant:
   any other fiber's [acquire] releases it (only one fiber runs at a
   time, so the holder must be suspended), and so does an engine event
   armed for the same instant when the hold begins. A tenure that began
   for free (idle processor, handoff claim) never holds: it paid
   nothing, and holding it would queue the receiver of the next handoff
   behind it.

   Handoff scheduling (Mach's message/scheduling duality): a send burst
   ([compute_donating]) whose message is about to wake a blocked
   receiver ends by reserving its own processor instead of dispatching
   the run queue, so the donation holds even on a fully busy host. The
   CPU is held in reserve — invisible to other acquirers — for one
   context-switch-time window; the receiver claims it via
   [claim_handoff] + its next [compute], entering without a run-queue
   round trip and without a context-switch charge. An unclaimed
   reservation expires, and one the sender hands back
   ([cancel_handoff]) is released at once; either way the CPU is
   re-dispatched. *)

module Counters = Mach_util.Metrics.Counters

let sched_counters = Counters.layout ()
let sched_stat = Counters.declare sched_counters
let s_switches = sched_stat "switches" (* run-queue dispatches (each charged context-switch time) *)
let s_preemptions = sched_stat "preemptions" (* quantum expiries that yielded the processor *)
let s_migrations = sched_stat "migrations" (* bursts begun on another CPU than the thread's last *)
let s_steals = sched_stat "steals" (* idle CPUs that took a waiter from another run queue *)
let s_handoff_claims = sched_stat "handoff_claims" (* bursts entered on a donated processor *)
(* donations the beneficiary never claimed (expired or handed back) *)
let s_handoff_expired = sched_stat "handoff_expired"
let s_affinity_hits = sched_stat "affinity_hits" (* direct acquires of the thread's previous CPU *)
let s_direct_dispatches = sched_stat "direct_dispatches" (* acquires that found an idle CPU *)
let s_enqueues = sched_stat "enqueues" (* acquires that had to wait on a run queue *)
let s_queue_depth_peak = sched_stat "queue_depth_peak" (* max total queued threads at any enqueue *)
let s_queue_depth_sum = sched_stat "queue_depth_sum" (* summed depth at enqueue *)
(* invariant oracle; stays 0 unless stealing is broken *)
let s_idle_with_waiter = sched_stat "idle_with_waiter"
(* bursts that re-entered the processor their paid tenure kept *)
let s_holds = sched_stat "holds"

(* A donated processor, live while it is its CPU's [c_reserved]. *)
type reservation = { r_sched : t; r_cpu : cpu; mutable r_for : Engine.fiber option }

and waiter = { w_fiber : Engine.fiber; w_wake : cpu Engine.waiter }

and cpu = {
  c_id : int;
  mutable c_running : Engine.fiber option; (* its fiber's [Engine.cpu] is [c_id] *)
  mutable c_last : Engine.fiber option;
  c_runq : waiter Queue.t;
  mutable c_reserved : reservation option;
  mutable c_busy_us : float;
  mutable c_paid_us : float; (* paid switch time the tenure has yet to run *)
  mutable c_held : bool; (* occupied between bursts of a paid tenure *)
}

and t = {
  eng : Engine.t;
  cpus : cpu array;
  quantum_us : float;
  context_switch_us : float;
  stats : Counters.t;
  mutable trace : Trace.t option;
}

let create eng ~cpus ?(quantum_us = 10_000.0) ~context_switch_us () =
  if cpus < 1 then invalid_arg "Sched.create: need at least one cpu";
  if quantum_us <= 0.0 then invalid_arg "Sched.create: quantum must be positive";
  {
    eng;
    cpus =
      Array.init cpus (fun i ->
          {
            c_id = i;
            c_running = None;
            c_last = None;
            c_runq = Queue.create ();
            c_reserved = None;
            c_busy_us = 0.0;
            c_paid_us = 0.0;
            c_held = false;
          });
    quantum_us;
    context_switch_us;
    stats = Counters.create sched_counters;
    trace = None;
  }

let cpu_count t = Array.length t.cpus
let stats t = t.stats
let set_trace t tr = t.trace <- tr

(* Give [cpu] to [fib] (or to nobody), keeping the occupant's
   [Engine.cpu] in step. *)
let occupy cpu fib =
  Option.iter (fun f -> Engine.set_cpu f (-1)) cpu.c_running;
  cpu.c_running <- fib;
  Option.iter (fun f -> Engine.set_cpu f cpu.c_id) fib

let trace_point t label =
  match t.trace with
  | Some tr when Trace.enabled tr -> Trace.point tr ~subsystem:"sched" label
  | Some _ | None -> ()
let busy_us t = Array.fold_left (fun acc c -> acc +. c.c_busy_us) 0.0 t.cpus
let queued t = Array.fold_left (fun acc c -> acc + Queue.length c.c_runq) 0 t.cpus

let idle_cpus t =
  Array.fold_left
    (fun acc c -> if c.c_running = None && c.c_reserved = None then acc + 1 else acc)
    0 t.cpus

let free c = c.c_running = None && c.c_reserved = None

(* Oracle for the no-starvation invariant: once dispatch has run, a
   truly idle processor implies every run queue is empty (work stealing
   would otherwise have found it a thread). Violations are counted, not
   raised, so property tests can assert the counter stays zero. *)
let check_idle_invariant t =
  if Array.exists free t.cpus && queued t > 0 then
    Counters.incr t.stats s_idle_with_waiter

let longest_runq t =
  let best = ref None in
  Array.iter
    (fun c ->
      let len = Queue.length c.c_runq in
      if len > 0 then
        match !best with
        | Some b when Queue.length b.c_runq >= len -> ()
        | _ -> best := Some c)
    t.cpus;
  !best

(* Give an idle CPU its next thread: local queue first, then steal the
   oldest waiter from the longest queue elsewhere. Both paths are run-
   queue dispatches and count a context switch (charged by the woken
   thread). Reserved CPUs are skipped — they are held for a handoff. *)
let dispatch t cpu =
  if cpu.c_reserved = None then begin
    match Queue.take_opt cpu.c_runq with
    | Some w ->
      occupy cpu (Some w.w_fiber);
      Counters.incr t.stats s_switches;
      Engine.wake w.w_wake cpu
    | None -> (
      match longest_runq t with
      | Some victim ->
        let w = Queue.take victim.c_runq in
        occupy cpu (Some w.w_fiber);
        Counters.incr t.stats s_switches;
        Counters.incr t.stats s_steals;
        Counters.incr t.stats s_migrations;
        Engine.wake w.w_wake cpu
      | None -> check_idle_invariant t)
  end

(* [fib] still occupies [cpu], so [c_running] already holds it. *)
let note_home cpu fib =
  cpu.c_last <- cpu.c_running;
  Engine.set_home fib cpu.c_id

type entry = Entry_direct | Entry_queued | Entry_handoff | Entry_held

let take t cpu fib =
  occupy cpu (Some fib);
  Counters.incr t.stats s_direct_dispatches;
  match cpu.c_last with
  | Some f when f == fib -> Counters.incr t.stats s_affinity_hits
  | Some _ | None -> ()

let first_free t =
  let found = ref None in
  Array.iter (fun c -> if !found = None && free c then found := Some c) t.cpus;
  !found

let shortest_runq t =
  let best = ref t.cpus.(0) in
  Array.iter (fun c -> if Queue.length c.c_runq < Queue.length !best.c_runq then best := c) t.cpus;
  !best

let live r = match r.r_cpu.c_reserved with Some r' -> r' == r | None -> false

(* End a hold: the holder has blocked, so its processor goes to the run
   queues. *)
let release t cpu =
  cpu.c_held <- false;
  occupy cpu None;
  dispatch t cpu

(* The caller is the only fiber running, so every other holder is
   blocked: release those, and resume the caller's own hold if it has
   one. *)
let take_holds t fib =
  let own = ref None in
  Array.iter
    (fun c ->
      if c.c_held then
        match c.c_running with
        | Some f when f == fib ->
          c.c_held <- false;
          own := Some c
        | Some _ | None -> release t c)
    t.cpus;
  !own

(* Begin a hold at the end of a paid burst. The release event runs at
   this instant, as soon as the holder next suspends: if that suspension
   is a block, the processor is still held and is released; if it is
   the holder's next burst, the hold was already resumed. No later hold
   on this CPU can begin before the event runs, since any burst ends
   after it in the engine's (time, sequence) order. *)
let hold t cpu =
  cpu.c_held <- true;
  Engine.schedule t.eng ~at:(Engine.now t.eng) (fun () -> if cpu.c_held then release t cpu)

(* The CPU whose live reservation [fib] claimed, from CPU [i] on; one
   that expired before [fib] computed is no longer any CPU's. *)
let rec claimed_by cpus fib i =
  if i = Array.length cpus then None
  else
    match cpus.(i).c_reserved with
    | Some { r_for = Some f; _ } when f == fib -> Some cpus.(i)
    | Some _ | None -> claimed_by cpus fib (i + 1)

(* A new tenure: a claimed handoff, an idle CPU, or a run-queue wait. *)
let start_tenure t fib =
  match claimed_by t.cpus fib 0 with
  | Some cpu ->
    cpu.c_reserved <- None;
    occupy cpu (Some fib);
    Counters.incr t.stats s_handoff_claims;
    (cpu, Entry_handoff)
  | None -> (
    let home = Engine.home fib in
    if home >= 0 && free t.cpus.(home) then begin
      take t t.cpus.(home) fib;
      (t.cpus.(home), Entry_direct)
    end
    else
      match first_free t with
      | Some c ->
        take t c fib;
        if home >= 0 then Counters.incr t.stats s_migrations;
        (c, Entry_direct)
      | None ->
        let target = if home >= 0 then t.cpus.(home) else shortest_runq t in
        Counters.incr t.stats s_enqueues;
        let depth = queued t + 1 in
        Counters.add t.stats s_queue_depth_sum depth;
        Counters.peak t.stats s_queue_depth_peak depth;
        let cpu = Engine.block (fun w -> Queue.add { w_fiber = fib; w_wake = w } target.c_runq) in
        (cpu, Entry_queued))

let acquire t fib =
  match take_holds t fib with
  | Some cpu ->
    Counters.incr t.stats s_holds;
    (cpu, Entry_held)
  | None -> start_tenure t fib

(* The context-switch cost of entering via a run queue, charged to the
   incoming thread on its new processor; it begins a paid tenure. *)
let charge_switch t cpu =
  if t.context_switch_us > 0.0 then begin
    Engine.sleep t.context_switch_us;
    cpu.c_busy_us <- cpu.c_busy_us +. t.context_switch_us;
    cpu.c_paid_us <- t.context_switch_us
  end

(* Runs a burst to completion and returns the processor it finished on,
   still occupied; the caller decides who gets it next. *)
let rec run_burst t cpu fib remaining =
  let slice = if remaining > t.quantum_us then t.quantum_us else remaining in
  Engine.sleep slice;
  cpu.c_busy_us <- cpu.c_busy_us +. slice;
  cpu.c_paid_us <- cpu.c_paid_us -. slice;
  let remaining = remaining -. slice in
  if remaining <= 0.0 then cpu
  else if Queue.length cpu.c_runq > 0 then begin
    (* Quantum expired with local contention: preempt. Requeue at the
       tail first so the dispatch below picks the earlier waiter. *)
    Counters.incr t.stats s_preemptions;
    trace_point t "preempt";
    note_home cpu fib;
    let cpu' =
      Engine.block (fun w ->
          Queue.add { w_fiber = fib; w_wake = w } cpu.c_runq;
          occupy cpu None;
          dispatch t cpu)
    in
    charge_switch t cpu';
    run_burst t cpu' fib remaining
  end
  else run_burst t cpu fib remaining

(* A positive-length burst on the calling thread; returns its processor
   still occupied (home noted) for [finish] or a donation. *)
let burst t us =
  let fib = Engine.self () in
  Engine.set_donated fib false;
  let cpu, entry = acquire t fib in
  trace_point t
    (match entry with
    | Entry_direct -> "enter_direct"
    | Entry_queued -> "enter_queued"
    | Entry_handoff -> "enter_handoff"
    | Entry_held -> "hold");
  (match entry with
  | Entry_queued -> charge_switch t cpu
  | Entry_direct | Entry_handoff -> cpu.c_paid_us <- 0.0
  | Entry_held -> ());
  let cpu = run_burst t cpu fib us in
  note_home cpu fib;
  cpu

(* A paid tenure with switch time left holds its processor; any other
   burst end gives it to the run queues. *)
let finish t cpu =
  if cpu.c_paid_us > 0.0 then hold t cpu
  else begin
    occupy cpu None;
    dispatch t cpu
  end

let compute t us = if us > 0.0 then finish t (burst t us)

(* {2 Handoff} *)

(* How long a donated processor is held for its beneficiary. Holding it
   longer than a context switch would cost more than simply switching,
   so the reservation window is exactly one context-switch time. *)
let reserve_window t = t.context_switch_us

(* End a reservation nobody claimed — its window ran out, or the donor
   handed it back — and give the processor to the run queues. *)
let expire t cpu =
  cpu.c_reserved <- None;
  Counters.incr t.stats s_handoff_expired;
  dispatch t cpu

let reserve t cpu =
  let r = { r_sched = t; r_cpu = cpu; r_for = None } in
  cpu.c_reserved <- Some r;
  trace_point t "donate";
  Engine.schedule t.eng ~at:(Engine.now t.eng +. reserve_window t) (fun () ->
      if live r then expire t cpu);
  r

(* The predicate runs at the instant the burst ends, with nothing else
   interleaved, so a caller may act on the same condition right after. *)
let compute_donating t us ~donate_if =
  if us <= 0.0 then None
  else begin
    let cpu = burst t us in
    if donate_if () then begin
      occupy cpu None;
      Engine.set_donated (Engine.self ()) true;
      Some (reserve t cpu)
    end
    else begin
      finish t cpu;
      None
    end
  end

let cancel_handoff r = if live r then expire r.r_sched r.r_cpu

let claim_handoff r fib = if live r && Option.is_none r.r_for then r.r_for <- Some fib
