(* Processor scheduler for the discrete-event engine.

   A [t] models the processors of one host. Simulated threads do not
   occupy a CPU while blocked on I/O or IPC; they occupy one only for
   the duration of a compute burst ([compute]). A burst:

   - acquires a processor: the thread's *home* CPU (soft affinity: the
     one it last ran on) if idle, else any idle CPU (a migration), else
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

type stats = {
  mutable s_switches : int;
  mutable s_preemptions : int;
  mutable s_migrations : int;
  mutable s_steals : int;
  mutable s_handoff_claims : int;
  mutable s_handoff_expired : int;
  mutable s_affinity_hits : int;
  mutable s_direct_dispatches : int;
  mutable s_enqueues : int;
  mutable s_queue_depth_peak : int;
  mutable s_queue_depth_sum : int;
  mutable s_idle_with_waiter : int;
  mutable s_holds : int;
}

let fresh_stats () =
  {
    s_switches = 0;
    s_preemptions = 0;
    s_migrations = 0;
    s_steals = 0;
    s_handoff_claims = 0;
    s_handoff_expired = 0;
    s_affinity_hits = 0;
    s_direct_dispatches = 0;
    s_enqueues = 0;
    s_queue_depth_peak = 0;
    s_queue_depth_sum = 0;
    s_idle_with_waiter = 0;
    s_holds = 0;
  }

let stats_to_list s =
  [
    ("switches", s.s_switches);
    ("preemptions", s.s_preemptions);
    ("migrations", s.s_migrations);
    ("steals", s.s_steals);
    ("handoff_claims", s.s_handoff_claims);
    ("handoff_expired", s.s_handoff_expired);
    ("affinity_hits", s.s_affinity_hits);
    ("direct_dispatches", s.s_direct_dispatches);
    ("enqueues", s.s_enqueues);
    ("queue_depth_peak", s.s_queue_depth_peak);
    ("queue_depth_sum", s.s_queue_depth_sum);
    ("idle_with_waiter", s.s_idle_with_waiter);
    ("holds", s.s_holds);
  ]

type reservation = { r_ticket : int; mutable r_for : string option }

type waiter = { w_name : string; w_wake : cpu -> unit }

and cpu = {
  c_id : int;
  mutable c_running : string option;
  mutable c_last : string;
  c_runq : waiter Queue.t;
  mutable c_reserved : reservation option;
  mutable c_busy_us : float;
  mutable c_paid_us : float; (* paid switch time the tenure has yet to run *)
  mutable c_held : bool; (* occupied between bursts of a paid tenure *)
}

type t = {
  eng : Engine.t;
  cpus : cpu array;
  affinity : (string, int) Hashtbl.t; (* thread name -> last CPU *)
  reservations : (int, cpu) Hashtbl.t; (* live handoff tickets *)
  pending_handoff : (string, cpu) Hashtbl.t; (* claimed, not yet entered *)
  mutable next_ticket : int;
  quantum_us : float;
  context_switch_us : float;
  stats : stats;
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
            c_last = "";
            c_runq = Queue.create ();
            c_reserved = None;
            c_busy_us = 0.0;
            c_paid_us = 0.0;
            c_held = false;
          });
    affinity = Hashtbl.create 64;
    reservations = Hashtbl.create 8;
    pending_handoff = Hashtbl.create 8;
    next_ticket = 0;
    quantum_us;
    context_switch_us;
    stats = fresh_stats ();
    trace = None;
  }

let cpu_count t = Array.length t.cpus
let stats t = t.stats
let set_trace t tr = t.trace <- tr

(* Which processor (if any) a named thread currently occupies — the
   trace's CPU-stamping hook. *)
let running_cpu t name =
  let found = ref None in
  Array.iter (fun c -> if !found = None && c.c_running = Some name then found := Some c.c_id) t.cpus;
  !found

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
    t.stats.s_idle_with_waiter <- t.stats.s_idle_with_waiter + 1

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
      cpu.c_running <- Some w.w_name;
      t.stats.s_switches <- t.stats.s_switches + 1;
      w.w_wake cpu
    | None -> (
      match longest_runq t with
      | Some victim ->
        let w = Queue.take victim.c_runq in
        cpu.c_running <- Some w.w_name;
        t.stats.s_switches <- t.stats.s_switches + 1;
        t.stats.s_steals <- t.stats.s_steals + 1;
        t.stats.s_migrations <- t.stats.s_migrations + 1;
        w.w_wake cpu
      | None -> check_idle_invariant t)
  end

let note_affinity t cpu name =
  cpu.c_last <- name;
  Hashtbl.replace t.affinity name cpu.c_id

let forget t name = Hashtbl.remove t.affinity name
let affinity_entries t = Hashtbl.length t.affinity

type entry = Entry_direct | Entry_queued | Entry_handoff | Entry_held

let take t cpu name =
  cpu.c_running <- Some name;
  t.stats.s_direct_dispatches <- t.stats.s_direct_dispatches + 1;
  if cpu.c_last = name then t.stats.s_affinity_hits <- t.stats.s_affinity_hits + 1

let first_free t =
  let found = ref None in
  Array.iter (fun c -> if !found = None && free c then found := Some c) t.cpus;
  !found

let shortest_runq t =
  let best = ref t.cpus.(0) in
  Array.iter (fun c -> if Queue.length c.c_runq < Queue.length !best.c_runq then best := c) t.cpus;
  !best

let consume_reservation t cpu =
  (match cpu.c_reserved with
  | Some r -> Hashtbl.remove t.reservations r.r_ticket
  | None -> ());
  cpu.c_reserved <- None

(* End a hold: the holder has blocked, so its processor goes to the run
   queues. *)
let release t cpu =
  cpu.c_held <- false;
  cpu.c_running <- None;
  dispatch t cpu

(* The caller is the only fiber running, so every other holder is
   blocked: release those, and resume the caller's own hold if it has
   one. *)
let take_holds t name =
  let own = ref None in
  Array.iter
    (fun c ->
      if c.c_held then
        match c.c_running with
        | Some n when String.equal n name ->
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

(* A new tenure: a claimed handoff, an idle CPU, or a run-queue wait. *)
let start_tenure t name =
  let claimed =
    match Hashtbl.find_opt t.pending_handoff name with
    | Some cpu
      when (match cpu.c_reserved with Some r -> r.r_for = Some name | None -> false) ->
      Hashtbl.remove t.pending_handoff name;
      consume_reservation t cpu;
      cpu.c_running <- Some name;
      t.stats.s_handoff_claims <- t.stats.s_handoff_claims + 1;
      Some (cpu, Entry_handoff)
    | Some _ ->
      (* The reservation expired (or was re-issued) before we computed. *)
      Hashtbl.remove t.pending_handoff name;
      None
    | None -> None
  in
  match claimed with
  | Some r -> r
  | None -> (
    let home = Hashtbl.find_opt t.affinity name in
    match home with
    | Some h when free t.cpus.(h) ->
      take t t.cpus.(h) name;
      (t.cpus.(h), Entry_direct)
    | _ -> (
      match first_free t with
      | Some c ->
        take t c name;
        if home <> None then t.stats.s_migrations <- t.stats.s_migrations + 1;
        (c, Entry_direct)
      | None ->
        let target =
          match home with Some h -> t.cpus.(h) | None -> shortest_runq t
        in
        t.stats.s_enqueues <- t.stats.s_enqueues + 1;
        let depth = queued t + 1 in
        t.stats.s_queue_depth_sum <- t.stats.s_queue_depth_sum + depth;
        if depth > t.stats.s_queue_depth_peak then t.stats.s_queue_depth_peak <- depth;
        let cpu =
          Engine.suspend (fun _eng k -> Queue.add { w_name = name; w_wake = k } target.c_runq)
        in
        (cpu, Entry_queued)))

let acquire t name =
  match take_holds t name with
  | Some cpu ->
    t.stats.s_holds <- t.stats.s_holds + 1;
    (cpu, Entry_held)
  | None -> start_tenure t name

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
let rec run_burst t cpu name remaining =
  let slice = if remaining > t.quantum_us then t.quantum_us else remaining in
  Engine.sleep slice;
  cpu.c_busy_us <- cpu.c_busy_us +. slice;
  cpu.c_paid_us <- cpu.c_paid_us -. slice;
  let remaining = remaining -. slice in
  if remaining <= 0.0 then cpu
  else if Queue.length cpu.c_runq > 0 then begin
    (* Quantum expired with local contention: preempt. Requeue at the
       tail first so the dispatch below picks the earlier waiter. *)
    t.stats.s_preemptions <- t.stats.s_preemptions + 1;
    trace_point t "preempt";
    note_affinity t cpu name;
    let cpu' =
      Engine.suspend (fun _eng k ->
          Queue.add { w_name = name; w_wake = k } cpu.c_runq;
          cpu.c_running <- None;
          dispatch t cpu)
    in
    charge_switch t cpu';
    run_burst t cpu' name remaining
  end
  else run_burst t cpu name remaining

(* A positive-length burst on the calling thread; returns its processor
   still occupied (affinity noted) for [finish] or a donation. *)
let burst t us =
  let name = Engine.self_name () in
  let cpu, entry = acquire t name in
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
  let cpu = run_burst t cpu name us in
  note_affinity t cpu name;
  cpu

(* A paid tenure with switch time left holds its processor; any other
   burst end gives it to the run queues. *)
let finish t cpu =
  if cpu.c_paid_us > 0.0 then hold t cpu
  else begin
    cpu.c_running <- None;
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
  (match cpu.c_reserved with
  | Some { r_for = Some name; _ } -> (
    match Hashtbl.find_opt t.pending_handoff name with
    | Some c when c == cpu -> Hashtbl.remove t.pending_handoff name
    | Some _ | None -> ())
  | Some _ | None -> ());
  consume_reservation t cpu;
  t.stats.s_handoff_expired <- t.stats.s_handoff_expired + 1;
  dispatch t cpu

let reserve t cpu =
  let ticket = t.next_ticket in
  t.next_ticket <- ticket + 1;
  cpu.c_reserved <- Some { r_ticket = ticket; r_for = None };
  Hashtbl.replace t.reservations ticket cpu;
  trace_point t "donate";
  Engine.schedule t.eng
    ~at:(Engine.now t.eng +. reserve_window t)
    (fun () ->
      match cpu.c_reserved with
      | Some r when r.r_ticket = ticket -> expire t cpu
      | Some _ | None -> ());
  ticket

(* The predicate runs at the instant the burst ends, with nothing else
   interleaved, so a caller may act on the same condition right after. *)
let compute_donating t us ~donate_if =
  if us <= 0.0 then None
  else begin
    let cpu = burst t us in
    if donate_if () then begin
      cpu.c_running <- None;
      Some (reserve t cpu)
    end
    else begin
      finish t cpu;
      None
    end
  end

let cancel_handoff t ~ticket =
  match Hashtbl.find_opt t.reservations ticket with
  | Some cpu -> expire t cpu
  | None -> ()

let claim_handoff t ~ticket ~name =
  match Hashtbl.find_opt t.reservations ticket with
  | None -> ()
  | Some cpu -> (
    match cpu.c_reserved with
    | Some r when r.r_ticket = ticket && r.r_for = None ->
      r.r_for <- Some name;
      Hashtbl.replace t.pending_handoff name cpu
    | _ -> ())
