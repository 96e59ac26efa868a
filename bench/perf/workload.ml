(* What a workload hands the harness once it is set up. *)

open Mach

type instance = {
  engine : Engine.t;
  kernels : Ktypes.kernel array;
  fs : Mach_pagers.Minimal_fs.t option;
  fs_disk : Disk.t option;
  netmem : Mach_pagers.Netmem.t option;
  ops : int;  (** operations the measured phase issues *)
  touches : int;  (** one-word accesses among them (sizes the sample array) *)
  chunk_ops : int;
      (** ops per host-time chunk: a whole number of the workload's
          rounds, so every chunk does the same mix of work *)
  run : Meter.t -> unit;
      (** spawn the closed-loop clients; each calls {!Meter.client_done} *)
  verify : Meter.t -> unit;  (** spawn the end-of-run correctness checks *)
}

type t = {
  name : string;
  why : string;
  setup : seed:int -> seconds:float -> instance;
      (** boot, populate and warm up for a measured phase sized to take
          about [seconds] of host CPU on the reference machine *)
}

(* Run [f] as a simulated thread to quiescence and return its result. *)
let in_engine engine name f =
  let r = ref None in
  Engine.spawn engine ~name (fun () -> r := Some (f ()));
  Engine.run engine;
  match !r with Some v -> v | None -> failwith (name ^ ": simulation deadlocked")

(* Sizes are a fixed rate times --seconds, never adapted to the speed of
   the host, so simulated results repeat exactly. The rates are
   calibrated on a 2-core 2.x GHz Xeon VM. *)
let sized seconds per_second =
  max 1 (int_of_float (Float.round (seconds *. float_of_int per_second)))

(* Setup-time accesses must succeed: a failure here is a broken build,
   not a measurement. *)
let ok_exn what = function Ok v -> v | Error _ -> failwith ("set-up failed: " ^ what)
