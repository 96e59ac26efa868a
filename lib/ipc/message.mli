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
          blocked receiver: the receive path skips its context-switch
          charge, and a non-negative value is a scheduler ticket for the
          donated processor ({!Mach_sim.Sched.claim_handoff}); [-1]
          marks a handoff with no processor to donate (e.g. a node without
          a scheduler) *)
  mutable trace_span : int;
      (** set by the transport when tracing: the sender's current
          {!Mach_sim.Trace} span id, so receivers can {!Mach_sim.Trace.adopt}
          it and causality crosses fibers and hosts; [-1] when unset *)
}

and item =
  | Data of bytes  (** inline typed data: moved by copying *)
  | Caps of cap list  (** port capabilities *)
  | Ool of ool  (** out-of-line memory region (payload carried) *)
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
}

and cap = { cap_port : port; cap_right : right }
and right = Send_right | Receive_right

and ool = {
  ool_data : bytes;
  transfer : transfer_mode;
}

and transfer_mode =
  | Copy_transfer  (** physical copy: cost scales with size *)
  | Map_transfer
      (** virtual (copy-on-write) transfer: constant mapping cost per
          page; this is the memory/communication duality applied to
          large messages *)

and port = t Port.t

type copy_payload += Net_copy of { nc_object : port }
      (** A copy object whose pages live on another host: [nc_object] is
          a memory-object port served netmem-style by the sending host;
          the receiver's kernel pages it on demand. *)

val make : ?reply:port -> ?msg_id:int -> dest:port -> item list -> t

val data : (Mach_util.Codec.Enc.t -> unit) -> item
(** A [Data] item holding what the marshaller writes. *)

val inline_bytes : t -> int
(** Bytes that must be physically copied to transfer this message
    (inline data plus [Copy_transfer] out-of-line regions). *)

val mapped_bytes : t -> int
(** Bytes moved by mapping ([Map_transfer] regions, unresolved
    [Ool_region]s, and copy objects). *)

val carried_mapped_bytes : t -> int
(** Mapped bytes whose payload travels with the message ([Map_transfer]
    [Ool] items) — the portion {!Transport.send_cost_us} charges map ops
    for. Regions and copy objects are excluded: copyin/copyout charge
    their own. *)

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

val pp : Format.formatter -> t -> unit
