(** Write-log recording device.

    Wraps a {!Iron_disk.Dev.t} and, while recording, journals every
    successful write — block number, a private copy of the data, and
    the {e epoch} it landed in. Epochs are delimited by [sync]: all
    writes between two syncs share one epoch, which is exactly the
    window a disk is free to reorder them in. The crash-state
    explorer ({!Explore}) replays chosen subsets of this log onto a
    restored base image to materialize every crash state a
    fail-partial disk could have left behind.

    When recording is off the device is {e invisible}: every request
    is forwarded verbatim, no bytes are copied, and the layers above
    and below observe byte-identical traces and statistics (the
    differential tests pin this). *)

type entry = {
  w_seq : int;  (** global write sequence, from 0 *)
  w_block : int;
  w_data : bytes;  (** frozen private copy — do not mutate *)
  w_epoch : int;  (** sync boundaries delimit epochs, from 0 *)
  w_t : float;
      (** simulated device time at the write ([Dev.now] below); [0.0]
          when the service-time model is off, in which case [w_seq]
          carries the ordering — the same convention as {!Iron_obs.Obs}
          spans *)
  w_prov : Iron_obs.Prov.tag;
      (** the ambient causal tag sampled when the write was recorded:
          originating workload op, journal transaction + commit policy,
          block role, and any fault rule that fired *)
}

type t

val create : Iron_disk.Dev.t -> t
(** Recording starts {e off}. *)

val dev : t -> Iron_disk.Dev.t
(** The recorder as a device. Reads (both copying and zero-copy),
    geometry and the clock forward untouched; writes and syncs forward
    first and are recorded only when they succeed below — a write the
    device rejected never reached the medium, so it cannot be part of
    any crash state. *)

val set_recording : t -> bool -> unit

val clear : t -> unit
(** Drop the log and reset the epoch counter. *)

val entries : t -> entry array
(** The recorded writes, in issue order. A fresh array; the [w_data]
    buffers are shared and must not be mutated. *)

val take : t -> entry array * int
(** [entries t, epochs t], then {!clear}. Ownership of the log moves to
    the caller: the recorder drops its growable buffer, so a campaign
    that records thousands of workloads through short-lived recorders
    retains each write log (and its payload copies) only as long as the
    caller keeps the returned array alive. *)

val length : t -> int
(** Number of recorded writes. *)

val epochs : t -> int
(** Number of complete epochs closed so far, i.e. successful syncs
    that had at least one recorded write before them. Writes after the
    last sync sit in epoch [epochs t] (the final, unsynced epoch). *)
