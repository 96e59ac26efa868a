(** Wire format of the external memory management protocol
    (Tables 3-4/3-5/3-6), hand-written in the style of the Mach
    Interface Generator.

    Every call is an asynchronous message. Kernel → manager calls are
    sent to the memory object port (except [pager_create], which goes to
    the default pager's public port); manager → kernel calls are sent to
    the pager request port handed out by [pager_init]. Page contents
    travel out-of-line, mapped rather than copied — the duality applied
    to the paging path itself. *)

module Message = Mach_ipc.Message

type kernel_to_manager =
  | Init of { memory_object : Message.port; request : Message.port; name : Message.port }
      (** [pager_init] *)
  | Data_request of {
      memory_object : Message.port;
      request : Message.port;
      offset : int;
      length : int;
      desired_access : Mach_hw.Prot.t;
    }
  | Data_write of { memory_object : Message.port; offset : int; data : bytes; write_id : int }
      (** [data] may span a run of adjacent pages — the kernel coalesces
          per-object runs of dirty pages into one write, so managers
          must split multi-page payloads at page boundaries. [write_id]
          identifies the kernel's holding object so the manager's
          release (its [vm_deallocate] of the transferred region,
          §6.2.2) can be modelled with {!Release_write}; one release
          covers the whole run. *)
  | Data_unlock of {
      memory_object : Message.port;
      request : Message.port;
      offset : int;
      length : int;
      desired_access : Mach_hw.Prot.t;
    }
  | Create of {
      new_memory_object : Message.port;
      request : Message.port;
      name : Message.port;
      size : int;
    }  (** [pager_create], sent to the default pager *)
  | Lock_completed of { memory_object : Message.port; offset : int; length : int }
      (** confirmation that a [pager_flush_request] has been carried out
          — §4.2's "once all readers have been invalidated" needs the
          manager to learn this; real Mach later added
          [memory_object_lock_completed] for the same reason *)

type manager_to_kernel =
  | Data_provided of { offset : int; data : bytes; lock_value : Mach_hw.Prot.t }
  | Data_lock of { offset : int; length : int; lock_value : Mach_hw.Prot.t }
  | Flush_request of { offset : int; length : int }
  | Clean_request of { offset : int; length : int }
  | Cache of { may_cache : bool }
  | Data_unavailable of { offset : int; size : int }
  | Release_write of { write_id : int }
      (** models the manager [vm_deallocate]-ing the data of a
          [pager_data_write]; not a distinct call in the paper *)

(** {2 Encoding} *)

val encode_k2m : reply:Message.port option -> kernel_to_manager -> dest:Message.port -> Message.t
val encode_m2k : manager_to_kernel -> request:Message.port -> Message.t

(** {2 Decoding} *)

exception Malformed of string

val decode_k2m : Message.t -> kernel_to_manager
(** Raises {!Malformed} on unknown ids or bad payloads. *)

val decode_m2k : Message.t -> manager_to_kernel

val is_pager_msg : Message.t -> bool
(** Whether the message id belongs to this protocol. *)
