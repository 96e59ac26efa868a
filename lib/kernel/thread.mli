(** Threads: the basic unit of computation, "a lightweight process
    operating within a task" (§3.1).

    A thread body is an ordinary OCaml function running as a simulated
    coroutine. Suspension is cooperative, as in any coroutine system:
    a suspended thread stops at its next {!checkpoint} (the syscall and
    compute paths call it implicitly). *)

open Ktypes

val spawn : task -> ?name:string -> (unit -> unit) -> thread
(** Start a thread in the task. *)

val suspend : thread -> unit
(** Increment the suspend count; the thread parks at its next
    checkpoint. *)

val resume : thread -> unit
(** Decrement the suspend count; at zero the thread continues. *)

val checkpoint : thread -> unit
(** Park here while the thread is suspended. *)

val self_checkpoint : task -> unit
(** Checkpoint for the calling thread, located by name. No-op if the
    caller is not a registered thread of [task]. *)

val is_done : thread -> bool
