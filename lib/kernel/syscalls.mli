(** The Mach system call interface: every operation of Tables 3-1
    (messages), 3-2 (ports), 3-3 (virtual memory) and 3-4
    ([vm_allocate_with_pager]). All calls act on behalf of a [task] and
    charge kernel-entry time. *)

open Ktypes

module Message = Mach_ipc.Message
module Port_space = Mach_ipc.Port_space
module Transport = Mach_ipc.Transport
module Prot = Mach_hw.Prot

(** {2 Table 3-1: primitive message operations} *)

val msg_send : task -> ?timeout:float -> Message.t -> (unit, Transport.send_error) result
(** [Ool_region] items naming the caller's address space are resolved
    into kernel copy objects before the send ([vm_map_copyin]): the
    sender's pages are COW-protected at O(pages) map cost and the
    message carries only a handle. Remote destinations get a
    netmem-style memory-object export instead, paged over the wire on
    demand. If the send fails, the local snapshots are discarded. *)

val msg_receive :
  task ->
  ?from:[ `Port of Port_space.name | `Any ] ->
  ?timeout:float ->
  unit ->
  (Message.t, Transport.recv_error) result

val msg_rpc :
  task ->
  Message.t ->
  unit ->
  (Message.t, [ `Send of Transport.send_error | `Recv of Transport.recv_error ]) result
(** Send then receive on the reply port; the request's out-of-line
    regions are snapshotted exactly as by {!msg_send}. *)

(** {2 Table 3-2: port operations} *)

val port_allocate : task -> ?backlog:int -> unit -> Port_space.name
val port_deallocate : task -> Port_space.name -> unit
val port_enable : task -> Port_space.name -> unit
val port_status : task -> Port_space.name -> Port_space.status option
val port_set_backlog : task -> Port_space.name -> int -> unit
val port_lookup : task -> Port_space.name -> Message.port option
val port_insert : task -> Message.port -> Message.right -> Port_space.name

(** {2 Table 3-3: virtual memory operations} *)

val vm_allocate : task -> ?addr:int -> size:int -> anywhere:bool -> unit -> int
val vm_deallocate : task -> addr:int -> size:int -> unit
val vm_inherit : task -> addr:int -> size:int -> Mach_vm.Vm_types.inheritance -> unit
val vm_protect : task -> addr:int -> size:int -> set_max:bool -> Prot.t -> unit

val vm_read :
  task -> ?target:task -> addr:int -> size:int -> unit -> (bytes, Mach_vm.Access.error) result

val vm_write :
  task -> ?target:task -> addr:int -> bytes -> unit -> (unit, Mach_vm.Access.error) result

val vm_copy :
  task -> src_addr:int -> size:int -> dst_addr:int -> (unit, Mach_vm.Access.error) result

val vm_regions : task -> Mach_vm.Vm_map.region_info list

val vm_wire : task -> addr:int -> size:int -> (unit, Mach_vm.Access.error) result
(** Fault in and wire the pages of a range: wired pages are never
    chosen by the pageout daemon (servers pin hot structures with
    this). *)

val vm_unwire : task -> addr:int -> size:int -> unit
(** Drop one wiring of each page of a range. Deallocating a range, or
    the task's death, drops all of its wirings. *)

type vm_statistics = {
  vs_page_size : int;
  vs_free_count : int;
  vs_active_count : int;
  vs_inactive_count : int;
  vs_stats : Mach_vm.Vm_types.stats;
}

val vm_statistics : task -> vm_statistics

(** {2 Table 3-4: external memory management} *)

val vm_allocate_with_pager :
  task ->
  ?addr:int ->
  size:int ->
  anywhere:bool ->
  memory_object:Message.port ->
  offset:int ->
  unit ->
  int
(** Map a manager-provided memory object. The kernel performs the
    [pager_init] call before this returns (§3.4.1), but does not wait
    for the manager. Mapping this way gives direct read/write access to
    the object, not a copy (footnote 7). *)

(** {2 Out-of-line regions}

    The mechanism behind out-of-line data in messages: a virtual
    (copy-on-write) transfer of whole pages, snapshotted at send and
    mapped lazily at receive (exactly how [fs_read_file] returns file
    contents, §4.1). *)

val ool_region : task -> addr:int -> size:int -> Message.item
(** Build a message item that transfers [addr, addr+size) of the
    sender's address space by mapping. *)

val map_ool : task -> Message.t -> (int * int) list
(** Map every out-of-line region of a received message into the calling
    task's address space; returns (address, size) pairs in body order.
    [Ool_copy] handles go through lazy [vm_map_copyout] (local) or a
    demand-paged mapping of the sender's export (remote [Net_copy]).
    Raises [Invalid_argument] on an [Ool_region] that no send
    resolved. *)

(** {2 Memory access (simulated loads/stores by task code)} *)

val touch :
  task ->
  addr:int ->
  write:bool ->
  ?policy:Mach_vm.Fault.policy ->
  unit ->
  (unit, Mach_vm.Access.error) result

val read_bytes :
  task ->
  addr:int ->
  len:int ->
  ?policy:Mach_vm.Fault.policy ->
  unit ->
  (bytes, Mach_vm.Access.error) result

val write_bytes :
  task ->
  addr:int ->
  bytes ->
  ?policy:Mach_vm.Fault.policy ->
  unit ->
  (unit, Mach_vm.Access.error) result
