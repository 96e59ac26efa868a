(* Tests for the discrete-event engine and its synchronisation
   primitives. *)

module Engine = Mach_sim.Engine
module Ivar = Mach_sim.Ivar
module Mailbox = Mach_sim.Mailbox
module Semaphore = Mach_sim.Semaphore
module Waitq = Mach_sim.Waitq

let check = Alcotest.check

(* ---- engine ------------------------------------------------------------- *)

let test_event_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:30.0 (fun () -> log := 3 :: !log);
  Engine.schedule eng ~at:10.0 (fun () -> log := 1 :: !log);
  Engine.schedule eng ~at:20.0 (fun () -> log := 2 :: !log);
  Engine.run eng;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 30.0 (Engine.now eng)

let test_tie_break_by_sequence () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule eng ~at:5.0 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  check Alcotest.(list int) "fifo among equal times" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_sleep_advances_time () =
  let eng = Engine.create () in
  let seen = ref 0.0 in
  Engine.spawn eng (fun () ->
      Engine.sleep 123.0;
      Engine.sleep 77.0;
      seen := Engine.now eng);
  Engine.run eng;
  check (Alcotest.float 1e-9) "slept" 200.0 !seen

let test_run_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~at:1000.0 (fun () -> fired := true);
  Engine.run ~until:500.0 eng;
  Alcotest.(check bool) "not yet" false !fired;
  check (Alcotest.float 1e-9) "clock clamped" 500.0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "eventually" true !fired

let test_spawn_nested () =
  let eng = Engine.create () in
  let order = ref [] in
  Engine.spawn eng ~name:"outer" (fun () ->
      order := "outer-start" :: !order;
      Engine.spawn eng ~name:"inner" (fun () -> order := "inner" :: !order);
      Engine.sleep 1.0;
      order := "outer-end" :: !order);
  Engine.run eng;
  check Alcotest.(list string) "interleaving" [ "outer-start"; "inner"; "outer-end" ]
    (List.rev !order)

let test_exception_propagates () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> failwith "boom");
  Alcotest.check_raises "thread exception surfaces" (Failure "boom") (fun () -> Engine.run eng)

let test_deadlock_detection () =
  let eng = Engine.create () in
  let iv : unit Ivar.t = Ivar.create () in
  Engine.spawn eng ~name:"stuck-thread" (fun () -> Ivar.read iv);
  Engine.run eng;
  check Alcotest.int "one live blocked thread" 1 (Engine.live eng);
  check Alcotest.(list string) "named" [ "stuck-thread" ] (Engine.blocked_names eng)

let test_self_name () =
  let eng = Engine.create () in
  let name = ref "" in
  Engine.spawn eng ~name:"me" (fun () -> name := Engine.fiber_name (Engine.self ()));
  Engine.run eng;
  check Alcotest.string "self name" "me" !name

let test_sleep_outside_a_thread_raises () =
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: returned" name
    | exception Effect.Unhandled _ -> ()
  in
  raises "outside run" (fun () -> Engine.sleep 1.0);
  let eng = Engine.create () in
  Engine.schedule eng ~at:5.0 (fun () -> Engine.sleep 1.0);
  raises "in a timer callback" (fun () -> Engine.run eng)

let test_self_name_opt () =
  let eng = Engine.create () in
  let seen = ref [] in
  let note where = seen := (where, Option.map Engine.fiber_name (Engine.self_opt ())) :: !seen in
  Engine.schedule eng ~at:3.0 (fun () -> note "callback");
  Engine.spawn eng ~name:"worker" (fun () ->
      note "start";
      Engine.sleep 3.0;
      note "queued wake";
      Engine.sleep 10.0;
      note "wake due alone");
  Engine.run eng;
  note "outside";
  check
    Alcotest.(list (pair string (option string)))
    "names"
    [
      ("start", Some "worker");
      ("callback", None);
      ("queued wake", Some "worker");
      ("wake due alone", Some "worker");
      ("outside", None);
    ]
    (List.rev !seen)

let test_blocked_past_until () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"sleeper" (fun () -> Engine.sleep 1000.0);
  Engine.spawn eng ~name:"quick" (fun () -> Engine.sleep 10.0);
  Engine.run ~until:500.0 eng;
  check Alcotest.(list string) "parked sleeper listed" [ "sleeper" ] (Engine.blocked_names eng);
  check (Alcotest.float 1e-9) "clock at until" 500.0 (Engine.now eng);
  check Alcotest.int "one still live" 1 (Engine.live eng);
  Engine.run eng;
  check Alcotest.(list string) "none once done" [] (Engine.blocked_names eng);
  check (Alcotest.float 1e-9) "woke on time" 1000.0 (Engine.now eng)

let test_nested_run_keeps_name () =
  let outer = Engine.create () in
  let names = ref [] and inner_now = ref 0.0 in
  Engine.spawn outer ~name:"outer" (fun () ->
      Engine.sleep 5.0;
      let inner = Engine.create () in
      Engine.spawn inner ~name:"inner" (fun () ->
          Engine.sleep 100.0;
          names := Engine.fiber_name (Engine.self ()) :: !names);
      Engine.run inner;
      inner_now := Engine.now inner;
      names := Engine.fiber_name (Engine.self ()) :: !names;
      Engine.sleep 1.0;
      names := Engine.fiber_name (Engine.self ()) :: !names);
  Engine.run outer;
  check Alcotest.(list string) "names" [ "inner"; "outer"; "outer" ] (List.rev !names);
  check (Alcotest.float 1e-9) "inner clock" 100.0 !inner_now;
  check (Alcotest.float 1e-9) "outer clock" 6.0 (Engine.now outer)

let test_determinism_across_runs () =
  let run () =
    let eng = Engine.create () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      Engine.spawn eng ~name:(Printf.sprintf "t%d" i) (fun () ->
          Engine.sleep (float_of_int (10 - i));
          Buffer.add_string log (Printf.sprintf "%d@%.0f;" i (Engine.now eng));
          Engine.sleep (float_of_int i);
          Buffer.add_string log (Printf.sprintf "%d@%.0f;" i (Engine.now eng)))
    done;
    Engine.run eng;
    Buffer.contents log
  in
  check Alcotest.string "identical traces" (run ()) (run ())

(* qcheck: arbitrary programs of spawns/sleeps/sends produce identical
   traces on re-execution — the engine is deterministic by
   construction. *)
let determinism_prop =
  let open QCheck2 in
  let op_gen =
    Gen.(
      oneof
        [
          map (fun d -> `Sleep (float_of_int (d mod 50))) small_nat;
          map (fun v -> `Send v) small_nat;
          pure `Recv;
          map (fun d -> `Spawn_child (float_of_int (d mod 20))) small_nat;
        ])
  in
  Test.make ~name:"random programs replay identically" ~count:50
    Gen.(list_size (int_range 1 12) (small_list op_gen))
    (fun programs ->
      let run () =
        let eng = Engine.create () in
        let mb = Mailbox.create () in
        let trace = Buffer.create 256 in
        List.iteri
          (fun i ops ->
            Engine.spawn eng ~name:(Printf.sprintf "prog-%d" i) (fun () ->
                List.iter
                  (fun op ->
                    match op with
                    | `Sleep d -> Engine.sleep d
                    | `Send v ->
                      Mailbox.send mb v;
                      Buffer.add_string trace (Printf.sprintf "%d:s%d@%.0f;" i v (Engine.now eng))
                    | `Recv -> (
                      match Mailbox.recv_timeout mb ~timeout:100.0 with
                      | Some v ->
                        Buffer.add_string trace
                          (Printf.sprintf "%d:r%d@%.0f;" i v (Engine.now eng))
                      | None -> Buffer.add_string trace (Printf.sprintf "%d:rT@%.0f;" i (Engine.now eng)))
                    | `Spawn_child d ->
                      Engine.spawn eng ~name:(Printf.sprintf "child-%d" i) (fun () ->
                          Engine.sleep d;
                          Buffer.add_string trace (Printf.sprintf "%d:c@%.0f;" i (Engine.now eng))))
                  ops))
          programs;
        Engine.run eng;
        Buffer.contents trace
      in
      run () = run ())

(* ---- timers ------------------------------------------------------------- *)

let test_cancelled_timer_never_runs () =
  let eng = Engine.create () in
  let log = ref [] in
  let early = Engine.timer eng ~at:10.0 (fun () -> log := 1 :: !log) in
  Engine.schedule eng ~at:20.0 (fun () -> log := 2 :: !log);
  let late = Engine.timer eng ~at:30.0 (fun () -> log := 3 :: !log) in
  Engine.schedule eng ~at:15.0 (fun () -> Engine.cancel eng late);
  Engine.cancel eng early;
  check Alcotest.int "cancelled timer left the queue" 3 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.(list int) "only the live event ran" [ 2 ] (List.rev !log);
  check Alcotest.int "events run" 2 (Engine.events_run eng);
  check Alcotest.int "peak queue" 4 (Engine.peak_pending eng)

(* A cancelled deadline never moves the clock: at quiescence [now] is
   the last live event, with or without [~until]. *)
let test_now_at_quiescence () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:20.0 ignore;
  Engine.cancel eng (Engine.timer eng ~at:2_000_000.0 ignore);
  Engine.run eng;
  check (Alcotest.float 1e-9) "clock at last live event" 20.0 (Engine.now eng);
  Engine.schedule eng ~at:40.0 ignore;
  Engine.cancel eng (Engine.timer eng ~at:60.0 ignore);
  Engine.run ~until:100.0 eng;
  check (Alcotest.float 1e-9) "drained before the limit" 40.0 (Engine.now eng)

let test_cancel_is_idempotent () =
  let eng = Engine.create () in
  let log = ref [] in
  let fired = Engine.timer eng ~at:5.0 (fun () -> log := 5 :: !log) in
  Engine.schedule eng ~at:7.0 (fun () -> log := 7 :: !log);
  Engine.schedule eng ~at:9.0 (fun () -> log := 9 :: !log);
  Engine.run ~until:6.0 eng;
  (* [fired] ran; its old slot now holds another event. *)
  Engine.cancel eng fired;
  let twice = Engine.timer eng ~at:8.0 (fun () -> log := 8 :: !log) in
  Engine.cancel eng twice;
  Engine.cancel eng twice;
  Engine.cancel eng Engine.no_timer;
  check Alcotest.int "two events still queued" 2 (Engine.pending eng);
  Engine.run eng;
  check Alcotest.(list int) "others untouched" [ 5; 7; 9 ] (List.rev !log)

(* qcheck: random schedules, timers and cancels — before the run or
   from callbacks, so timers leave from anywhere in the heap — run in
   the order of a sorted-list model: (time, creation order), minus
   whatever was cancelled before its turn. *)
let timer_order_prop =
  let open QCheck2 in
  let op_gen =
    Gen.(
      oneof
        [
          map (fun t -> `Schedule t) (int_bound 20);
          map (fun t -> `Timer t) (int_bound 20);
          map (fun k -> `Cancel k) nat;
          map2 (fun t k -> `Cancel_at (t, k)) (int_bound 20) nat;
        ])
  in
  let print_op = function
    | `Schedule t -> Printf.sprintf "schedule %d" t
    | `Timer t -> Printf.sprintf "timer %d" t
    | `Cancel k -> Printf.sprintf "cancel #%d" k
    | `Cancel_at (t, k) -> Printf.sprintf "cancel #%d at %d" k t
  in
  Test.make ~name:"timers run in (time, seq) order; cancelled ones never" ~count:300
    ~print:Print.(list print_op)
    Gen.(list_size (int_range 0 60) op_gen)
    (fun ops ->
      let eng = Engine.create () in
      let log = ref [] in
      let timers = ref [] in
      (* (time, id, id of the timer it cancels); id is the op index, so
         it orders like the engine's sequence number *)
      let model = ref [] in
      let pick k =
        match !timers with [] -> None | l -> Some (List.nth l (k mod List.length l))
      in
      let drop target l = List.filter (fun (_, id, _) -> id <> target) l in
      List.iteri
        (fun id op ->
          let run () = log := id :: !log in
          match op with
          | `Schedule t ->
            Engine.schedule eng ~at:(float_of_int t) run;
            model := (t, id, None) :: !model
          | `Timer t ->
            timers := (id, Engine.timer eng ~at:(float_of_int t) run) :: !timers;
            model := (t, id, None) :: !model
          | `Cancel k -> (
            match pick k with
            | None -> ()
            | Some (target, tm) ->
              Engine.cancel eng tm;
              model := drop target !model)
          | `Cancel_at (t, k) -> (
            match pick k with
            | None -> ()
            | Some (target, tm) ->
              Engine.schedule eng ~at:(float_of_int t) (fun () ->
                  run ();
                  Engine.cancel eng tm);
              model := (t, id, Some target) :: !model))
        ops;
      let rec replay acc = function
        | [] -> List.rev acc
        | (_, id, cancels) :: rest ->
          let rest = match cancels with Some target -> drop target rest | None -> rest in
          replay (id :: acc) rest
      in
      let expected = replay [] (List.sort compare !model) in
      Engine.run eng;
      List.rev !log = expected && Engine.pending eng = 0)

(* Threads that sleep, among callbacks, against a model that queues
   every event in (time, seq) order. A fiber's start takes a sequence
   number at spawn. A sleep queues its wake, and the wake queues the
   fiber's resume at the same time. Delays include zero and land on
   queued events' times; the run stops at [until] first. *)
let sleep_order_prop =
  let open QCheck2 in
  let op_gen =
    Gen.(
      oneof
        [
          map (fun t -> `Event t) (int_bound 20);
          map (fun ds -> `Fiber ds) (list_size (int_range 0 4) (int_bound 6));
        ])
  in
  let print_op = function
    | `Event t -> Printf.sprintf "event %d" t
    | `Fiber ds -> "sleeps " ^ String.concat "," (List.map string_of_int ds)
  in
  Test.make ~name:"sleeps keep (time, seq) order and count as events" ~count:300
    ~print:Print.(pair (list print_op) int)
    Gen.(pair (list_size (int_range 0 30) op_gen) (int_bound 30))
    (fun (ops, until) ->
      let eng = Engine.create () in
      let log = ref [] in
      let note id () = log := (id, int_of_float (Engine.now eng)) :: !log in
      (* (time, seq, id, what) *)
      let queue = ref [] and seq = ref 0 in
      let push t id what =
        incr seq;
        queue := (t, !seq, id, what) :: !queue
      in
      List.iteri
        (fun id op ->
          match op with
          | `Event t ->
            Engine.schedule eng ~at:(float_of_int t) (note id);
            push t id `Callback
          | `Fiber ds ->
            Engine.spawn eng ~name:(string_of_int id) (fun () ->
                List.iter
                  (fun d ->
                    note id ();
                    Engine.sleep (float_of_int d))
                  ds;
                note id ());
            push 0 id (`Run ds))
        ops;
      let expected = ref [] and runs = ref 0 and now = ref 0 in
      let rec model limit =
        match List.sort compare !queue with
        | (t, _, id, what) :: rest when t <= limit ->
          queue := rest;
          incr runs;
          now := t;
          (match what with
          | `Callback -> expected := (id, t) :: !expected
          | `Wake ds -> push t id (`Run ds)
          | `Run ds -> (
            expected := (id, t) :: !expected;
            match ds with d :: ds -> push (t + d) id (`Wake ds) | [] -> ()));
          model limit
        | rest -> if rest <> [] then now := limit
      in
      let same () =
        !log = !expected && Engine.events_run eng = !runs && int_of_float (Engine.now eng) = !now
      in
      model until;
      Engine.run ~until:(float_of_int until) eng;
      (* A fiber is blocked from its sleep until its wake runs. *)
      let blocked =
        List.filter_map
          (function _, _, id, `Wake _ -> Some (string_of_int id) | _ -> None)
          !queue
      in
      let ok = same () && Engine.blocked_names eng = List.sort_uniq String.compare blocked in
      model max_int;
      Engine.run eng;
      ok && same () && Engine.pending eng = 0 && Engine.live eng = 0)

(* A timed wait woken early takes its timer with it: when the waiter
   resumes nothing else is queued, and the run ends at the wake, not at
   the deadline. [wait] reports whether the wake (not the timeout)
   ended the wait. *)
let woken_early ~wait ~wake () =
  let eng = Engine.create () in
  let woken = ref false and left = ref (-1) in
  Engine.spawn eng ~name:"waiter" (fun () ->
      woken := wait ();
      left := Engine.pending eng);
  Engine.spawn eng ~name:"waker" (fun () ->
      Engine.sleep 10.0;
      wake ());
  Engine.run eng;
  Alcotest.(check bool) "woken, not timed out" true !woken;
  check Alcotest.int "no timer left queued" 0 !left;
  check (Alcotest.float 1e-9) "clock stops at the wake" 10.0 (Engine.now eng)

let long = 1e9

let test_waitq_timer_dies () =
  let wq = Waitq.create () in
  woken_early ~wait:(fun () -> Waitq.wait_timeout wq ~timeout:long) ~wake:(fun () -> Waitq.signal wq) ()

let test_send_timer_dies () =
  let mb = Mailbox.create ~capacity:1 () in
  Mailbox.send mb 0;
  woken_early
    ~wait:(fun () -> Mailbox.send_timeout mb 1 ~timeout:long)
    ~wake:(fun () -> ignore (Mailbox.recv mb))
    ()

let test_recv_timer_dies () =
  let mb = Mailbox.create () in
  woken_early
    ~wait:(fun () -> Mailbox.recv_timeout mb ~timeout:long = Some 1)
    ~wake:(fun () -> Mailbox.send mb 1)
    ()

let test_ivar_timer_dies () =
  let iv = Ivar.create () in
  woken_early
    ~wait:(fun () -> Ivar.read_timeout iv ~timeout:long = Some 1)
    ~wake:(fun () -> Ivar.fill iv 1)
    ()

(* ---- ivar --------------------------------------------------------------- *)

let test_ivar_fill_then_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Ivar.fill iv 42;
  Engine.spawn eng (fun () -> got := Ivar.read iv);
  Engine.run eng;
  check Alcotest.int "value" 42 !got

let test_ivar_read_then_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        (* Bind before consing: [!got] must be read after the blocking
           call, not before (right-to-left evaluation). *)
        let v = Ivar.read iv in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Ivar.fill iv 7);
  Engine.run eng;
  check Alcotest.int "all readers woken" 3 (List.length !got);
  List.iter (fun (_, v) -> check Alcotest.int "value" 7 v) !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "try_fill fails" false (Ivar.try_fill iv 2);
  check Alcotest.(option int) "first value kept" (Some 1) (Ivar.peek iv)

let test_ivar_timeout () =
  let eng = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let got = ref (Some 99) in
  let at = ref 0.0 in
  Engine.spawn eng (fun () ->
      got := Ivar.read_timeout iv ~timeout:50.0;
      at := Engine.now eng);
  Engine.run eng;
  check Alcotest.(option int) "timed out" None !got;
  check (Alcotest.float 1e-9) "at deadline" 50.0 !at

let test_ivar_timeout_beaten_by_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn eng (fun () -> got := Ivar.read_timeout iv ~timeout:100.0);
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Ivar.fill iv 5);
  Engine.run eng;
  check Alcotest.(option int) "filled in time" (Some 5) !got

(* ---- mailbox ------------------------------------------------------------ *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for i = 1 to 5 do
        Mailbox.send mb i
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.run eng;
  check Alcotest.(list int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_mailbox_capacity_blocks_sender () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:2 () in
  let sent_all_at = ref 0.0 in
  Engine.spawn eng ~name:"producer" (fun () ->
      for i = 1 to 3 do
        Mailbox.send mb i
      done;
      sent_all_at := Engine.now eng);
  Engine.spawn eng ~name:"consumer" (fun () ->
      Engine.sleep 100.0;
      ignore (Mailbox.recv mb));
  Engine.run eng;
  (* The third send had to wait for the consumer at t=100. *)
  check (Alcotest.float 1e-9) "blocked until drain" 100.0 !sent_all_at

let test_mailbox_send_timeout () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 () in
  let second = ref true in
  Engine.spawn eng (fun () ->
      Mailbox.send mb 1;
      second := Mailbox.send_timeout mb 2 ~timeout:50.0);
  Engine.run eng;
  Alcotest.(check bool) "timed out" false !second;
  check Alcotest.int "only first queued" 1 (Mailbox.length mb)

let test_mailbox_recv_timeout () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let got = ref (Some 1) in
  Engine.spawn eng (fun () -> got := Mailbox.recv_timeout mb ~timeout:25.0);
  Engine.run eng;
  check Alcotest.(option int) "timeout" None !got

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  check Alcotest.(option int) "empty" None (Mailbox.try_recv mb);
  let eng = Engine.create () in
  Engine.spawn eng (fun () -> Mailbox.send mb 9);
  Engine.run eng;
  check Alcotest.(option int) "nonempty" (Some 9) (Mailbox.try_recv mb)

let test_mailbox_direct_handoff () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:0 () in
  (* Zero capacity: transfer only via a waiting receiver. *)
  let got = ref 0 in
  Engine.spawn eng ~name:"rx" (fun () -> got := Mailbox.recv mb);
  Engine.spawn eng ~name:"tx" (fun () ->
      Engine.sleep 5.0;
      Mailbox.send mb 77);
  Engine.run eng;
  check Alcotest.int "handoff" 77 !got

let test_mailbox_raise_capacity_admits_senders () =
  let eng = Engine.create () in
  let mb = Mailbox.create ~capacity:1 () in
  let done_ = ref false in
  Engine.spawn eng (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      (* blocks *)
      done_ := true);
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Mailbox.set_capacity mb (Some 4));
  Engine.run eng;
  Alcotest.(check bool) "admitted after resize" true !done_;
  check Alcotest.int "both queued" 2 (Mailbox.length mb)

(* ---- semaphore ----------------------------------------------------------- *)

let test_semaphore_mutual_exclusion () =
  let eng = Engine.create () in
  let sem = Semaphore.create 1 in
  let inside = ref 0 in
  let max_inside = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () ->
        Semaphore.with_permit sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Engine.sleep 10.0;
            decr inside))
  done;
  Engine.run eng;
  check Alcotest.int "never two inside" 1 !max_inside;
  check (Alcotest.float 1e-9) "serialised" 40.0 (Engine.now eng)

let test_semaphore_parallelism () =
  let eng = Engine.create () in
  let sem = Semaphore.create 4 in
  for _ = 1 to 4 do
    Engine.spawn eng (fun () -> Semaphore.with_permit sem (fun () -> Engine.sleep 10.0))
  done;
  Engine.run eng;
  check (Alcotest.float 1e-9) "all parallel" 10.0 (Engine.now eng)

let test_semaphore_fifo_big_request () =
  let eng = Engine.create () in
  let sem = Semaphore.create 2 in
  let order = ref [] in
  Engine.spawn eng ~name:"small1" (fun () ->
      Semaphore.acquire sem;
      Engine.sleep 10.0;
      Semaphore.release sem);
  Engine.spawn eng ~name:"small2" (fun () ->
      Semaphore.acquire sem;
      Engine.sleep 20.0;
      Semaphore.release sem);
  Engine.spawn eng ~name:"big" (fun () ->
      Engine.sleep 1.0;
      Semaphore.acquire ~n:2 sem;
      order := "big" :: !order;
      Semaphore.release ~n:2 sem);
  Engine.spawn eng ~name:"small3" (fun () ->
      Engine.sleep 2.0;
      Semaphore.acquire sem;
      order := "small3" :: !order;
      Semaphore.release sem);
  Engine.run eng;
  (* The big request is at the queue head; small3 must not starve it. *)
  check Alcotest.(list string) "big not starved" [ "big"; "small3" ] (List.rev !order)

let test_try_acquire () =
  let sem = Semaphore.create 1 in
  Alcotest.(check bool) "first" true (Semaphore.try_acquire sem);
  Alcotest.(check bool) "second fails" false (Semaphore.try_acquire sem);
  Semaphore.release sem;
  Alcotest.(check bool) "after release" true (Semaphore.try_acquire sem)

(* ---- waitq ---------------------------------------------------------------- *)

let test_waitq_signal_wakes_one () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Waitq.wait wq;
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 1.0;
      Waitq.signal wq);
  Engine.run eng;
  check Alcotest.int "one woken" 1 !woken;
  check Alcotest.int "two blocked" 2 (Engine.live eng - 0)

let test_waitq_broadcast_wakes_all () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () ->
        Waitq.wait wq;
        incr woken)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 1.0;
      Waitq.broadcast wq);
  Engine.run eng;
  check Alcotest.int "all woken" 3 !woken

let test_waitq_signal_fifo () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng (fun () ->
        Engine.sleep (float_of_int i);
        Waitq.wait wq;
        order := i :: !order)
  done;
  Engine.spawn eng (fun () ->
      Engine.sleep 10.0;
      Waitq.signal wq;
      Engine.sleep 1.0;
      Waitq.signal wq;
      Engine.sleep 1.0;
      Waitq.signal wq);
  Engine.run eng;
  check Alcotest.(list int) "oldest waiter first" [ 1; 2; 3 ] (List.rev !order)

let test_waitq_timeout () =
  let eng = Engine.create () in
  let wq = Waitq.create () in
  let result = ref true in
  Engine.spawn eng (fun () -> result := Waitq.wait_timeout wq ~timeout:30.0);
  Engine.run eng;
  Alcotest.(check bool) "timed out" false !result

(* ---- one waiter under Waitq, Mailbox and Ivar ---------------------------- *)

type step =
  | Sleep of int
  | Wait
  | Wait_for of int
  | Signal
  | Broadcast
  | Send of int
  | Recv of int
  | Close
  | Read of int
  | Fill

type outcome = Unit | Flag of bool | Value of int option | Shut

(* One step of one fiber: when it began and, once it returned, when and
   with what. [value] is what a [Send] or [Fill] offers. *)
type op = {
  fiber : int;
  step : step;
  value : int;
  start : float;
  mutable finish : (float * outcome) option;
}

let show_step = function
  | Sleep d -> Printf.sprintf "sleep %d" d
  | Wait -> "wait"
  | Wait_for d -> Printf.sprintf "wait %d" d
  | Signal -> "signal"
  | Broadcast -> "broadcast"
  | Send d -> Printf.sprintf "send %d" d
  | Recv d -> Printf.sprintf "recv %d" d
  | Close -> "close"
  | Read d -> Printf.sprintf "read %d" d
  | Fill -> "fill"

let fiber_name i = Printf.sprintf "f%d" i

(* Fibers share one wait queue, one one-slot mailbox and one ivar, and
   block with and without timeouts. Each step's outcome is checked
   against the wake that should have ended it: a timeout value exactly
   at the deadline, a wake value no later than it and from a waker that
   ran at that instant. A signal, or a message handed over, while a
   fiber stays blocked wakes another. The ivar hands every reader the
   first fill; the mailbox loses and duplicates nothing. At quiescence
   no timer is left (the clock stops at the last step) and the only
   blocked fibers wait untimed on the queue with no broadcast after
   they began. *)
let waiter_prop =
  let open QCheck2 in
  let step_gen =
    let d = Gen.int_bound 20 in
    Gen.(
      frequency
        [
          (3, map (fun d -> Sleep d) d);
          (2, pure Wait);
          (3, map (fun d -> Wait_for d) d);
          (2, pure Signal);
          (1, pure Broadcast);
          (3, map (fun d -> Send d) d);
          (3, map (fun d -> Recv d) d);
          (1, pure Close);
          (3, map (fun d -> Read d) d);
          (1, pure Fill);
        ])
  in
  Test.make ~name:"every wait ends once, by its first waker or its timeout" ~count:500
    ~print:Print.(list (list show_step))
    Gen.(list_size (int_range 1 5) (list_size (int_range 0 8) step_gen))
    (fun fibers ->
      let eng = Engine.create () in
      let wq = Waitq.create () and mb = Mailbox.create ~capacity:1 () and iv = Ivar.create () in
      let ops = ref [] and dropped = ref [] in
      List.iteri
        (fun i steps ->
          Engine.spawn eng ~name:(fiber_name i) (fun () ->
              List.iteri
                (fun j step ->
                  let op =
                    { fiber = i; step; value = (100 * i) + j; start = Engine.now eng; finish = None }
                  in
                  ops := op :: !ops;
                  let outcome =
                    match step with
                    | Sleep d ->
                      Engine.sleep (float_of_int d);
                      Unit
                    | Wait ->
                      Waitq.wait wq;
                      Flag true
                    | Wait_for d -> Flag (Waitq.wait_timeout wq ~timeout:(float_of_int d))
                    | Signal ->
                      Waitq.signal wq;
                      Unit
                    | Broadcast ->
                      Waitq.broadcast wq;
                      Unit
                    | Send d -> (
                      match Mailbox.send_timeout mb op.value ~timeout:(float_of_int d) with
                      | b -> Flag b
                      | exception Mailbox.Closed -> Shut)
                    | Recv d -> (
                      match Mailbox.recv_timeout mb ~timeout:(float_of_int d) with
                      | v -> Value v
                      | exception Mailbox.Closed -> Shut)
                    | Close ->
                      Mailbox.close ~drop:(fun v -> dropped := v :: !dropped) mb;
                      Unit
                    | Read d -> Value (Ivar.read_timeout iv ~timeout:(float_of_int d))
                    | Fill -> Flag (Ivar.try_fill iv op.value)
                  in
                  op.finish <- Some (Engine.now eng, outcome))
                steps))
        fibers;
      Engine.run eng;
      let all = List.rev !ops in
      let finished =
        List.filter_map (fun op -> Option.map (fun (t, o) -> (op, t, o)) op.finish) all
      in
      let is_wait = function Wait | Wait_for _ -> true | _ -> false in
      let is_send = function Send _ -> true | _ -> false in
      let is_recv = function Recv _ -> true | _ -> false in
      let times p = List.filter_map (fun (op, t, o) -> if p op.step o then Some t else None) finished in
      let values p =
        List.filter_map (fun (op, _, o) -> if p op.step o then Some op.value else None) finished
      in
      let wakes = times (fun st _ -> st = Signal || st = Broadcast) in
      let broadcasts = times (fun st _ -> st = Broadcast) and closes = times (fun st _ -> st = Close) in
      let broadcast_within lo hi = List.exists (fun b -> b > lo && b < hi) broadcasts in
      let fill =
        List.find_map
          (fun (op, t, o) -> if op.step = Fill && o = Flag true then Some (t, op.value) else None)
          finished
      in
      let sent = values (fun st o -> is_send st && o = Flag true) in
      let refused = values (fun st o -> is_send st && (o = Flag false || o = Shut)) in
      let received =
        List.filter_map
          (fun (op, _, o) -> match op.step, o with Recv _, Value v -> v | _ -> None)
          finished
      in
      let step_ok (op, t, o) =
        let s = op.start in
        let deadline d = s +. float_of_int d in
        match op.step, o with
        | Sleep d, Unit -> t = deadline d
        | (Signal | Broadcast | Close), Unit | Fill, Flag _ -> t = s
        | Wait, Flag true -> List.mem t wakes
        | Wait_for d, Flag true -> t <= deadline d && List.mem t wakes
        | Wait_for d, Flag false -> t = deadline d && not (broadcast_within s t)
        | (Send d, Flag true | Recv d, Value (Some _)) -> t <= deadline d
        | (Send d, Flag false | Recv d, Value None) -> t = deadline d
        | (Send _ | Recv _), Shut -> List.exists (fun c -> c <= t) closes
        | Read d, Value (Some v) -> (
          match fill with
          | Some (tf, vf) -> v = vf && t = Float.max s tf && t <= deadline d
          | None -> false)
        | Read d, Value None -> (
          t = deadline d && match fill with Some (tf, _) -> tf >= t | None -> true)
        | _ -> false
      in
      (* While a [blocked] step stays blocked across an instant, each
         [serve] step that returns then must wake one [woken] step. *)
      let served ~blocked ~serve ~woken =
        let live_across ts =
          List.exists
            (fun op ->
              blocked op.step && op.start < ts
              && match op.finish with None -> true | Some (t, _) -> t > ts)
            all
        in
        let at ts p = List.length (List.filter (fun (op, t, o) -> t = ts && p op.step o) finished) in
        List.for_all (fun ts -> (not (live_across ts)) || at ts woken >= at ts serve) (times serve)
      in
      let got st o = is_recv st && match o with Value (Some _) -> true | _ -> false in
      let accepted st o = is_send st && o = Flag true in
      let unfinished = List.filter (fun op -> op.finish = None) all in
      let last =
        List.fold_left
          (fun m op -> Float.max m (match op.finish with Some (t, _) -> t | None -> op.start))
          0.0 all
      in
      let remaining = if closes = [] then Mailbox.length mb else List.length !dropped in
      List.for_all step_ok finished
      && List.length (times (fun st o -> st = Fill && o = Flag true)) <= 1
      && served ~blocked:is_wait ~serve:(fun st _ -> st = Signal) ~woken:(fun st o ->
             is_wait st && o = Flag true)
      && served ~blocked:is_send ~serve:got ~woken:accepted
      && served ~blocked:is_recv ~serve:accepted ~woken:got
      && List.length (List.sort_uniq compare received) = List.length received
      && List.for_all (fun v -> List.mem v sent) (received @ !dropped)
      && List.for_all (fun v -> not (List.mem v received)) refused
      && List.length sent = List.length received + remaining
      && List.for_all
           (fun op -> op.step = Wait && not (broadcast_within op.start infinity))
           unfinished
      && Engine.blocked_names eng
         = List.sort_uniq String.compare (List.map (fun op -> fiber_name op.fiber) unfinished)
      && Engine.live eng = List.length unfinished
      && Engine.pending eng = 0
      && Engine.now eng = last)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_event_ordering;
          Alcotest.test_case "tie break by sequence" `Quick test_tie_break_by_sequence;
          Alcotest.test_case "sleep advances time" `Quick test_sleep_advances_time;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "nested spawn" `Quick test_spawn_nested;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "self name" `Quick test_self_name;
          Alcotest.test_case "sleep outside a thread raises" `Quick test_sleep_outside_a_thread_raises;
          Alcotest.test_case "self name only in a thread" `Quick test_self_name_opt;
          Alcotest.test_case "blocked past until" `Quick test_blocked_past_until;
          Alcotest.test_case "nested run keeps the name" `Quick test_nested_run_keeps_name;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          QCheck_alcotest.to_alcotest determinism_prop;
        ] );
      ( "timers",
        [
          Alcotest.test_case "cancelled timer never runs" `Quick test_cancelled_timer_never_runs;
          Alcotest.test_case "now at quiescence" `Quick test_now_at_quiescence;
          Alcotest.test_case "cancel is idempotent" `Quick test_cancel_is_idempotent;
          QCheck_alcotest.to_alcotest timer_order_prop;
          QCheck_alcotest.to_alcotest sleep_order_prop;
          Alcotest.test_case "waitq wake cancels the timeout" `Quick test_waitq_timer_dies;
          Alcotest.test_case "send wake cancels the timeout" `Quick test_send_timer_dies;
          Alcotest.test_case "recv wake cancels the timeout" `Quick test_recv_timer_dies;
          Alcotest.test_case "ivar fill cancels the timeout" `Quick test_ivar_timer_dies;
        ] );
      ("waiter", [ QCheck_alcotest.to_alcotest waiter_prop ]);
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read then fill wakes all" `Quick test_ivar_read_then_fill;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill;
          Alcotest.test_case "timeout" `Quick test_ivar_timeout;
          Alcotest.test_case "fill beats timeout" `Quick test_ivar_timeout_beaten_by_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "capacity blocks sender" `Quick test_mailbox_capacity_blocks_sender;
          Alcotest.test_case "send timeout" `Quick test_mailbox_send_timeout;
          Alcotest.test_case "recv timeout" `Quick test_mailbox_recv_timeout;
          Alcotest.test_case "try recv" `Quick test_mailbox_try_recv;
          Alcotest.test_case "zero-capacity handoff" `Quick test_mailbox_direct_handoff;
          Alcotest.test_case "raising capacity admits senders" `Quick
            test_mailbox_raise_capacity_admits_senders;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_semaphore_mutual_exclusion;
          Alcotest.test_case "parallelism" `Quick test_semaphore_parallelism;
          Alcotest.test_case "fifo big request" `Quick test_semaphore_fifo_big_request;
          Alcotest.test_case "try acquire" `Quick test_try_acquire;
        ] );
      ( "waitq",
        [
          Alcotest.test_case "signal wakes one" `Quick test_waitq_signal_wakes_one;
          Alcotest.test_case "broadcast wakes all" `Quick test_waitq_broadcast_wakes_all;
          Alcotest.test_case "signal is FIFO" `Quick test_waitq_signal_fifo;
          Alcotest.test_case "timeout" `Quick test_waitq_timeout;
        ] );
    ]
