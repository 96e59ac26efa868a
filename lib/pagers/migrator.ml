open Mach_kernel.Ktypes
module Message = Mach_ipc.Message
module Engine = Mach_sim.Engine
module Task = Mach_kernel.Task
module Syscalls = Mach_kernel.Syscalls
module Vm_map = Mach_vm.Vm_map
module Access = Mach_vm.Access
module Mos = Mach.Memory_object_server
module Rt = Mach.Pager_runtime

type strategy = Eager_copy | Copy_on_reference | Pre_paging of int
type migration = { mg_task : task; mg_freeze_us : float }

type backed_region = {
  br_src : task;
  br_base : int;  (** address of the region in the source task *)
  br_size : int;
  br_strategy : strategy;
}

type t = {
  rt : backed_region Rt.t;
  srv : Mos.t;
  mutable shipped : int;  (** eager pages; demand pages are counted by the runtime *)
  mutable sources : (migration * task) list;
}

let server_task t = Mos.task t.srv
let runtime_stats t = Rt.stats t.rt

let pages_transferred t =
  t.shipped + (Rt.stats t.rt).Rt.Stats.s_pages_served

let page_size_of task =
  (Task.kernel task).Mach_kernel.Ktypes.k_kctx.Mach_vm.Kctx.page_size

(* How much data actually crosses the network is this manager's policy:
   migration pays per page shipped, so copy-on-reference reshapes every
   cluster down to the demanded page (the kernel re-requests a clustered
   neighbor if it is ever truly referenced) and pre-paging serves its own
   fixed lookahead ("advanced data managers may provide more data than
   requested"). The per-page reads come out of the frozen source task. *)
let policy =
  {
    Rt.default_policy with
    Rt.p_reshape =
      (fun rt o ~first ~npages:_ ->
        let br = o.Rt.o_data in
        let ps = Rt.page_size rt in
        match br.br_strategy with
        | Eager_copy | Copy_on_reference -> (first, 1)
        | Pre_paging n ->
          let region_pages = max 1 ((br.br_size + ps - 1) / ps) in
          (first, min (1 + n) (max 1 (region_pages - first))));
    p_read =
      (fun rt o ~request:_ ~page ~npages:_ ~desired_access:_ ->
        let br = o.Rt.o_data in
        let ps = Rt.page_size rt in
        let off = page * ps in
        if off >= br.br_size then Rt.Unavailable
        else begin
          let len = min ps (br.br_size - off) in
          match
            Access.read_bytes
              (Task.kernel br.br_src).Mach_kernel.Ktypes.k_kctx (Task.map br.br_src)
              ~addr:(br.br_base + off) ~len ()
          with
          | Ok data -> Rt.Data data
          | Error _ -> Rt.Unavailable
        end);
  }

let start kernel ?(name = "migration-manager") () =
  let srv_task = Task.create kernel ~name () in
  let rt, srv = Mos.serve srv_task policy in
  { rt; srv; shipped = 0; sources = [] }

(* One memory object backed by a (frozen) source region. *)
let back_region t ~src ~base ~size strategy =
  let memory_object = Mos.create_memory_object t.srv () in
  ignore
    (Rt.register t.rt ~memory_object
       { br_src = src; br_base = base; br_size = size; br_strategy = strategy });
  memory_object

(* Ship the whole address space up front: the manager reads every source
   page and writes it into the destination task through a per-page
   message to a destination-side agent (charging the network for every
   byte, referenced or not). *)
let eager_copy t ~src ~dst regions =
  let src_kctx = (Task.kernel src).Mach_kernel.Ktypes.k_kctx in
  let dst_kernel = Task.kernel dst in
  let ps = page_size_of src in
  (* Destination-side agent that lands pages into the new task. *)
  let agent_task = Task.create dst_kernel ~name:"migration-agent" () in
  let landing_name = Syscalls.port_allocate agent_task ~backlog:8 () in
  Syscalls.port_enable agent_task landing_name;
  let landing = Mach_ipc.Port_space.lookup_exn (Task.space agent_task) landing_name in
  let total_pages =
    List.fold_left (fun acc r -> acc + ((r.Vm_map.ri_size + ps - 1) / ps)) 0 regions
  in
  let done_ = Mach_sim.Ivar.create () in
  ignore
    (Mach_kernel.Thread.spawn agent_task ~name:"migration-agent.main" (fun () ->
         let landed = ref 0 in
         while !landed < total_pages do
           match Syscalls.msg_receive agent_task ~from:(`Port landing_name) () with
           | Ok msg -> (
             match Message.data_exn msg with
             | header -> (
               let d = Mach_util.Codec.Dec.of_bytes header in
               let addr = Mach_util.Codec.Dec.int d in
               let data = Mach_util.Codec.Dec.bytes d in
               incr landed;
               match Syscalls.write_bytes dst ~addr data () with
               | Ok () -> ()
               | Error _ -> ())
             | exception Not_found -> ())
           | Error _ -> ()
         done;
         Mach_sim.Ivar.fill done_ ()));
  List.iter
    (fun r ->
      let base = r.Vm_map.ri_start in
      let npages = (r.Vm_map.ri_size + ps - 1) / ps in
      for i = 0 to npages - 1 do
        match Access.read_bytes src_kctx (Task.map src) ~addr:(base + (i * ps)) ~len:ps () with
        | Ok data ->
          t.shipped <- t.shipped + 1;
          let e = Mach_util.Codec.Enc.create () in
          Mach_util.Codec.Enc.int e (base + (i * ps));
          Mach_util.Codec.Enc.bytes e data;
          let msg =
            Message.make ~dest:landing [ Message.Data (Mach_util.Codec.Enc.to_bytes e) ]
          in
          (match Syscalls.msg_send (server_task t) msg with Ok () | Error _ -> ())
        | Error _ -> ()
      done)
    regions;
  Mach_sim.Ivar.read done_;
  Task.terminate agent_task

let migrate t ~src ~dst_kernel strategy =
  let t0 = Engine.now (Task.kernel src).Mach_kernel.Ktypes.k_engine in
  let regions =
    List.filter (fun r -> not r.Vm_map.ri_shared) (Vm_map.regions (Task.map src))
  in
  let dst = Task.create dst_kernel ~name:(Task.name src ^ "-migrated") () in
  (match strategy with
  | Eager_copy ->
    (* Allocate plain zero-fill memory and push every page across
       before the task may run. *)
    List.iter
      (fun r ->
        ignore
          (Syscalls.vm_allocate dst ~addr:r.Vm_map.ri_start ~size:r.Vm_map.ri_size
             ~anywhere:false ()))
      regions;
    eager_copy t ~src ~dst regions
  | Copy_on_reference | Pre_paging _ ->
    (* One memory object per region, backed by the frozen source. *)
    List.iter
      (fun r ->
        let memory_object =
          back_region t ~src ~base:r.Vm_map.ri_start ~size:r.Vm_map.ri_size strategy
        in
        ignore
          (Syscalls.vm_allocate_with_pager dst ~addr:r.Vm_map.ri_start ~size:r.Vm_map.ri_size
             ~anywhere:false ~memory_object ~offset:0 ()))
      regions);
  let mg =
    { mg_task = dst; mg_freeze_us = Engine.now (Task.kernel src).Mach_kernel.Ktypes.k_engine -. t0 }
  in
  t.sources <- (mg, src) :: t.sources;
  mg

let finish t mg =
  match List.assq_opt mg t.sources with
  | None -> ()
  | Some src ->
    t.sources <- List.filter (fun (m, _) -> m != mg) t.sources;
    Task.terminate src
