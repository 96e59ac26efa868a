(* E11 — §3.3: copy-on-write inheritance under the copy engine. Three
   claims are measured:

   1. Fork cost is independent of address-space size: the freeze of the
      parent's chain is one batched protect per entry (Pmap.protect_range),
      not one map op per resident page.
   2. Fork/exit generations do not accrete shadow-chain depth: the
      child's exit triggers a collapse from the surviving shadower, and
      the parent's next write STEALS sole-user pages up the chain
      instead of copying them.
   3. Steal-vs-copy accounting: pages whose backing became exclusive
      move for free (rename), only genuinely shared pages pay the
      400 us copy.

   A fourth run forks a region twice the size of physical memory: the
   copy-on-write chain then pages, and no store may be lost. *)

open Mach
open Common

let page = 4096

(* Max shadow-chain depth under any of the task's direct entries. *)
let chain_depth_of task =
  List.fold_left
    (fun acc e ->
      match e.Vm_map.backing with
      | Vm_map.Direct d -> max acc (Vm_object.chain_depth d.Vm_map.d_obj)
      | Vm_map.Shared _ -> acc)
    0
    (Vm_map.entries (Task.map task))

(* Run [f] to completion on a fresh thread of [child]. *)
let in_child child name f =
  let finished = Ivar.create () in
  ignore
    (Thread.spawn child ~name (fun () ->
         f ();
         Ivar.fill finished ()));
  Ivar.read finished

(* ---- 1. fork cost vs region size ---------------------------------- *)

(* Touch every page so the fork freezes a fully resident chain — the
   worst case for a per-page write-protect sweep. *)
let fork_cost sys task ~pages =
  let engine = sys.Kernel.engine in
  let kernel = sys.Kernel.kernel in
  let addr = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
  for i = 0 to pages - 1 do
    ignore (ok_exn "warm" (Syscalls.touch task ~addr:(addr + (i * page)) ~write:true ()))
  done;
  let child = ref None in
  let (), fork_us =
    timed engine (fun () -> child := Some (Task.create kernel ~parent:task ~name:"forked" ()))
  in
  Task.terminate (Option.get !child);
  Syscalls.vm_deallocate task ~addr ~size:(pages * page);
  fork_us

(* ---- 2./3. generational fork/exit --------------------------------- *)

(* Pages resolved by COW write faults: one per fault plus the pending
   neighbours each one batched. *)
let cow_resolved stats =
  Counters.get stats Vm_types.s_cow_faults + Counters.get stats Vm_types.s_cow_batched

(* Two regions, two mechanisms. In the EAGER region the parent dirties
   a few pages while the child lives: the backing is shared, so these
   copy and leave a live parent shadow — when the child exits, the
   deallocate-path collapse fires from that survivor and flattens the
   chain with renames. In the LAZY region the parent writes only after
   the exit: the first fault finds the whole backing chain exclusive
   and STEALS its window up the chain (the collapse renames the rest);
   nothing is copied. The child dirties a quarter of both regions each
   generation (genuinely shared pages — those must copy). *)
type gen_row = {
  g_gen : int;
  g_depth_live : int;  (** parent chain depth while the child lives *)
  g_depth_exit : int;  (** after child exit + one parent write *)
  g_steals : int;
  g_copies : int;
}

let generations sys task ~pages ~gens =
  let kernel = sys.Kernel.kernel in
  let stats = Kernel.stats kernel in
  let eager = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
  let lazy_ = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
  List.iter
    (fun addr ->
      for i = 0 to pages - 1 do
        ignore (ok_exn "init" (Syscalls.touch task ~addr:(addr + (i * page)) ~write:true ()))
      done)
    [ eager; lazy_ ];
  let spread_writes tsk addr n =
    for i = 0 to n - 1 do
      let p = i * pages / n in
      ignore (ok_exn "w" (Syscalls.touch tsk ~addr:(addr + (p * page)) ~write:true ()))
    done
  in
  let rows = ref [] in
  for g = 1 to gens do
    let steals0 = Counters.get stats Vm_types.s_cow_steals in
    let resolved0 = cow_resolved stats in
    let child = Task.create kernel ~parent:task ~name:(Printf.sprintf "gen%d" g) () in
    spread_writes task eager 4;
    let depth_live = chain_depth_of task in
    in_child child (Printf.sprintf "gen%d.main" g) (fun () ->
        for i = 0 to (pages / 4) - 1 do
          ignore (ok_exn "cw" (Syscalls.touch child ~addr:(eager + (i * page)) ~write:true ()));
          ignore (ok_exn "cw" (Syscalls.touch child ~addr:(lazy_ + (i * page)) ~write:true ()))
        done);
    Task.terminate child;
    spread_writes task lazy_ 4;
    let steals = Counters.get stats Vm_types.s_cow_steals - steals0 in
    let resolved = cow_resolved stats - resolved0 in
    rows :=
      {
        g_gen = g;
        g_depth_live = depth_live;
        g_depth_exit = chain_depth_of task;
        g_steals = steals;
        g_copies = resolved - steals;
      }
      :: !rows
  done;
  List.iter (fun addr -> Syscalls.vm_deallocate task ~addr ~size:(pages * page)) [ eager; lazy_ ];
  List.rev !rows

(* ---- 4. fork under paging pressure ------------------------------- *)

(* Each cycle forks, touches random pages of the parent's region (a
   quarter of them stores) and terminates the child. Pageout binds the
   parent's shadows to the default pager, and every load must return
   the parent's last store. Returns (bad loads, pageouts). *)
let paging_cycles sys task ~pages ~cycles =
  let kernel = sys.Kernel.kernel in
  let rng = Rng.create 11 in
  let addr = Syscalls.vm_allocate task ~size:(pages * page) ~anywhere:true () in
  let last = Array.init pages Fun.id in
  let store p v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    ok_exn "paging store" (Syscalls.write_bytes task ~addr:(addr + (p * page)) b ());
    last.(p) <- v
  in
  for p = 0 to pages - 1 do
    store p p
  done;
  let bad = ref 0 in
  for c = 1 to cycles do
    let child = Task.create kernel ~parent:task ~name:(Printf.sprintf "paging%d" c) () in
    for i = 1 to 128 do
      let p = Rng.int rng pages in
      if Rng.int rng 4 = 0 then store p ((c lsl 16) lor i)
      else
        let b = Syscalls.read_bytes task ~addr:(addr + (p * page)) ~len:8 () in
        if Int64.to_int (Bytes.get_int64_le (ok_exn "paging load" b) 0) <> last.(p) then incr bad
    done;
    Task.terminate child
  done;
  (!bad, Counters.get (Kernel.stats kernel) Vm_types.s_pageouts)

(* Its own host, kept out of the reg.* keys: those report the resident
   runs. The chain still grows a level per cycle here (collapse skips
   shadows bound to a pager), so its depth does not feed gen_depth_peak. *)
let paging_arm ~frames ~pages ~cycles =
  let resident = !collected in
  let config = { Kernel.default_config with Kernel.phys_frames = frames } in
  let r = run_system ~config (fun sys task -> paging_cycles sys task ~pages ~cycles) in
  collected := resident;
  r

let body scale =
  let sizes, pages, gens =
    match scale with Full -> ([ 64; 256; 1024; 4096 ], 64, 8) | Small -> ([ 16 ], 16, 2)
  in
  let resident =
    run_system (fun sys task ->
        let forks = List.map (fun pages -> (pages, fork_cost sys task ~pages)) sizes in
        let rows = generations sys task ~pages ~gens in
        let stats = Kernel.stats sys.Kernel.kernel in
        let steals = Counters.get stats Vm_types.s_cow_steals in
        let resolved = cow_resolved stats in
        let fork_times = List.map snd forks in
        List.map (fun (pages, fork_us) -> (Printf.sprintf "fork_us_%d" pages, fork_us)) forks
        @ [
            ( "fork_flatness",
              List.fold_left max 0.0 fork_times /. List.fold_left min infinity fork_times );
            ("generations", fi (List.length rows));
            ("gen_pages", fi pages);
            ("gen_depth_peak", fi (List.fold_left (fun acc r -> max acc r.g_depth_exit) 0 rows));
            ("chain_depth_peak", fi (Counters.get stats Vm_types.s_chain_depth_peak));
            ("cow_pages_resolved", fi resolved);
            ("cow_steals", fi steals);
            ("cow_copies", fi (resolved - steals));
            ("steal_rate", fi steals /. fi (max 1 resolved));
            ("collapses", fi (Counters.get stats Vm_types.s_collapses));
          ]
        @ List.concat_map
            (fun r ->
              let k = Printf.sprintf "gen%d_%s" r.g_gen in
              [
                (k "depth_live", fi r.g_depth_live);
                (k "depth_exit", fi r.g_depth_exit);
                (k "steals", fi r.g_steals);
                (k "copies", fi r.g_copies);
              ])
            rows)
  in
  let paging_bad, paging_pageouts =
    match scale with
    | Full -> paging_arm ~frames:256 ~pages:512 ~cycles:8
    | Small -> paging_arm ~frames:64 ~pages:128 ~cycles:2
  in
  resident @ [ ("paging_bad_loads", fi paging_bad); ("paging_pageouts", fi paging_pageouts) ]

let tables pairs =
  let f =
    Table.create
      ~title:
        "E11: fork cost vs region size (fully resident; freeze is one batched protect per entry, \
         Section 3.3)"
      ~columns:[ "region"; "fork us" ]
  in
  List.iter
    (fun (pages, fork_us) ->
      let pages = int_of_string pages in
      Table.row f [ Printf.sprintf "%d pages (%d KB)" pages (pages * page / 1024); us fork_us ])
    (with_prefix pairs "fork_us_");
  let g =
    Table.create
      ~title:
        (Printf.sprintf
           "E11: fork/exit generations over a %d-page region (the deallocate-path collapse and \
            page stealing keep the chain flat)"
           (geti pairs "gen_pages"))
      ~columns:
        [ "generation"; "depth (child live)"; "depth (after exit)"; "pages stolen"; "pages copied" ]
  in
  for gen = 1 to geti pairs "generations" do
    Table.row g
      (string_of_int gen
      :: List.map
           (fun f -> us0 (get pairs (Printf.sprintf "gen%d_%s" gen f)))
           [ "depth_live"; "depth_exit"; "steals"; "copies" ])
  done;
  let s =
    Table.create ~title:"E11: steal-vs-copy accounting (whole run)" ~columns:[ "counter"; "value" ]
  in
  List.iter
    (fun (label, key) -> Table.row s [ label; us0 (get pairs key) ])
    [
      ("COW pages resolved", "cow_pages_resolved");
      ("  stolen (renamed, no copy)", "cow_steals");
      ("  copied (400 us each)", "cow_copies");
    ];
  Table.row s [ "steal rate"; Printf.sprintf "%.3f" (get pairs "steal_rate") ];
  Table.row s [ "chain collapses"; us0 (get pairs "collapses") ];
  Table.row s [ "deepest chain walked by a fault"; us0 (get pairs "chain_depth_peak") ];
  let pg =
    Table.create
      ~title:"E11: fork/touch cycles over a region twice the size of physical memory"
      ~columns:[ "counter"; "value" ]
  in
  Table.row pg [ "pages paged out"; us0 (get pairs "paging_pageouts") ];
  Table.row pg [ "parent loads not returning the last store"; us0 (get pairs "paging_bad_loads") ];
  [ f; g; s; pg ]

let experiment =
  {
    id = "E11";
    title = "Fork copy-on-write";
    paper_claim =
      "Copy-on-write sharing through inheritance makes virtual memory copying at task creation \
       cheap: the fork itself costs microseconds regardless of size; pages are copied only when \
       actually written — and not even then, when the snapshot is the page's only remaining user \
       (Section 3.3).";
    body;
    tables;
  }
