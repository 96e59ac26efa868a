(** The machine-dependent physical map module (the paper's §5.5
    "hardware validation" step).

    One [Pmap.t] per task address space. It holds the virtual-page →
    frame translations currently validated in "hardware"; all simulated
    memory accesses go through {!access}, which sets the frame's
    reference/modify bits exactly as an MMU would. The machine-independent
    VM layer may throw any translation away at any time — the pmap is a
    cache, never the truth. *)

type t

type fault = Missing | Protection
(** [Missing]: no valid translation. [Protection]: a translation exists
    but forbids the attempted access. *)

val create : Phys_mem.t -> t

val enter : t -> vpn:int -> frame:Phys_mem.frame -> prot:Prot.t -> unit
(** Install (or replace) the translation for virtual page [vpn]. *)

val enter_batch : t -> (int * Phys_mem.frame * Prot.t) list -> unit
(** Install several [(vpn, frame, prot)] translations in one machine
    operation — the burst-fault path amortises per-entry validation
    cost across the batch. *)

val remove : t -> vpn:int -> unit
(** Invalidate a translation; harmless if absent. *)

val remove_range : t -> lo:int -> hi:int -> unit
(** Invalidate [lo..hi] (inclusive virtual page numbers). *)

val protect : t -> vpn:int -> prot:Prot.t -> unit
(** Reduce/alter the protection of an existing translation; harmless if
    absent. *)

val protect_range : t -> lo:int -> hi:int -> prot:Prot.t -> unit
(** Alter the protection of every existing translation in [lo..hi]
    (inclusive virtual page numbers) in one machine operation — the
    copy engine's fork/copyin write-protect sweep amortises per-entry
    validation cost across the run. Pages without a translation are
    skipped. *)

val lookup : t -> vpn:int -> (Phys_mem.frame * Prot.t) option

val access : t -> vpn:int -> write:bool -> (Phys_mem.frame, fault) result
(** Simulate a load ([write = false]) or store. On success the frame's
    reference bit is set, and its modify bit too for stores. *)

val resident_count : t -> int
(** Number of valid translations (diagnostic). *)
