(** The disk service-time model and statistics engine of {!Memdisk}:
    head position, rotational PRNG, dirty flag and every counter live
    here, apart from the block store.

    The three service-time components (paper Table 6 context) model
    one 7200 RPM drive, with constants that no caller varies:

    - {b seek}: moving the arm between distant blocks costs
      [0.8 + 7.2 * sqrt(distance / num_blocks)] ms;
    - {b rotation}: after any seek, a uniformly random rotational wait
      in [0, 8.33) ms (one revolution) drawn from the model's
      deterministic PRNG; strictly sequential accesses stream with no
      rotational wait;
    - {b transfer}: [block_size] bytes at 40 MB/s.

    A sync with dirty data pending charges half a rotation — the
    ordering stall transactional checksums (§6.1) exist to avoid. *)

type params = {
  block_size : int;  (** bytes per block (default 4096) *)
  num_blocks : int;  (** default 2048 (an 8 MiB volume) *)
  seed : int;  (** PRNG seed for rotational positions *)
}

val default_params : params

type stats = {
  reads : int;
  writes : int;
  syncs : int;
  seeks : int;  (** requests that required arm movement *)
  elapsed_ms : float;  (** total simulated service time *)
}

type t

val create : params -> t

val charge_read : t -> int -> unit
(** Count one read of the given block and charge its service time. *)

val charge_write : t -> int -> unit
(** Count one write, charge service time, mark the device dirty. *)

val charge_sync : t -> unit
(** Count one sync; with dirty data pending, charge half a rotation
    and clear the dirty flag. *)

val stats : t -> stats
val reset_stats : t -> unit

val reset : t -> unit
(** Restore-time reset: park the head, clear the dirty flag, zero the
    statistics and clock. The PRNG keeps its state. *)

val set_timed : t -> bool -> unit
(** Disable ([false]) or enable the service-time model. Fingerprinting
    campaigns disable it; the benchmark harness enables it. Default:
    enabled. *)

val now : t -> float
(** The simulated clock, milliseconds. *)
