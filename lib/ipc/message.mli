(** Messages: "a fixed length header and a variable-size collection of
    typed data objects", which may include port capabilities and
    out-of-line memory (§3.2). *)

type copy_payload = ..
(** Contents of a kernel copy object. The VM layer extends this with its
    copy-map representation ([Vm_map.Vm_copy_handle]); the network path
    extends it here with {!Net_copy}. Extensibility keeps this module
    free of a dependency on the VM structures. *)

type t = { header : header; body : item list }

and header = {
  dest : port;
  reply : port option;
  msg_id : int;  (** operation identifier, like Mach's msgh_id *)
  mutable handoff : int option;
      (** set by the transport when the message was handed directly to a
          blocked receiver: the scheduler ticket of the donated processor
          ({!Mach_sim.Sched.claim_handoff}); the receive path claims it
          and skips its context-switch charge *)
  mutable trace_span : int;
      (** set by the transport when tracing: the sender's current
          {!Mach_sim.Trace} span id, so receivers can {!Mach_sim.Trace.adopt}
          it and causality crosses fibers and hosts; [-1] when unset *)
}

and item =
  | Data of bytes  (** inline typed data: moved by copying *)
  | Caps of cap list  (** port capabilities *)
  | Ool of bytes
      (** out-of-line memory carried in the message and mapped
          (copy-on-write) at the receiver: a constant mapping cost per
          page instead of a copy — the memory/communication duality
          applied to large messages. Data to be copied goes inline in
          a [Data] item. *)
  | Ool_region of ool_region
      (** out-of-line *address-space region* as named by the sender: the
          kernel resolves it into an {!Ool_copy} at send time
          ([vm_map_copyin]). *)
  | Ool_copy of copy_object
      (** a kernel-held copy object: the snapshot of a sender region
          taken at send time. The message carries only this handle — no
          bytes; the receiver maps it copy-on-write and pages materialize
          lazily through the fault path ([vm_map_copyout]). *)

and ool_region = { src_task : int; src_addr : int; region_size : int }

and copy_object = {
  cp_size : int;  (** bytes covered by the snapshot *)
  cp_payload : copy_payload;
  cp_discard : unit -> unit;
      (** releases the snapshot of a message that is never received
          ([vm_map_copy_discard]); idempotent *)
}

and cap = { cap_port : port; cap_right : right }
and right = Send_right | Receive_right

and port = t Port.t

type copy_payload += Net_copy of { nc_object : port }
      (** A copy object whose pages live on another host: [nc_object] is
          a memory-object port served netmem-style by the sending host;
          the receiver's kernel pages it on demand. *)

val make : ?reply:port -> ?msg_id:int -> dest:port -> item list -> t

val data : (Mach_util.Codec.Enc.t -> unit) -> item
(** A [Data] item holding what the marshaller writes. *)

val inline_bytes : t -> int
(** Bytes that must be physically copied to transfer this message:
    its [Data] items. *)

val mapped_bytes : t -> int
(** Bytes moved by mapping ([Ool] payloads, unresolved [Ool_region]s,
    and copy objects). *)

val carried_mapped_bytes : t -> int
(** Mapped bytes whose payload travels with the message ([Ool] items)
    — the portion {!Transport.send_cost_us} charges map ops for.
    Regions and copy objects are excluded: copyin/copyout charge their
    own. *)

val wire_bytes : t -> int
(** Bytes that cross the network for a remote send: inline data, carried
    out-of-line payloads, and a fixed 16 bytes (a port name plus a
    length) per copy handle (the zero-copy win: the snapshot's pages do
    not travel). *)

val total_bytes : t -> int

val data_exn : t -> bytes
(** The first [Data] item; raises [Not_found] if none. *)

val caps : t -> cap list
(** All capabilities in body order. *)

val ool_payloads : t -> bytes list

val discard : t -> unit
(** Release the snapshots held by a message that will never be received
    (its port died with it queued, or it arrived at a dead port): each
    copy object's [cp_discard], as [ipc_kmsg_destroy] discards a
    kmsg's out-of-line copies. *)

val pp : Format.formatter -> t -> unit
