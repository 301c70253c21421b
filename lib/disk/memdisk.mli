(** The in-memory simulated disk: one block image for every campaign.

    A device is a frozen, structurally shared {e image} plus a private
    overlay of the blocks written since the last {!snapshot} or
    {!restore}; service time and statistics come from {!Model} (seek,
    rotation, transfer). Everything per-block is O(touched), never
    O(num_blocks):

    - an image is an array of fixed {!chunk_blocks}-block chunks, each
      [None] (all zero) until a block inside it is first frozen;
      untouched slots of a materialized chunk alias one shared zero
      block, so a blank multi-GB image is a few hundred words;
    - the overlay keeps dirty blocks off-heap in a {!Bigstore} slab,
      indexed per chunk by a plain slot array: the read path does no
      hashing and [read_into] allocates nothing;
    - a write of all zeroes onto a still-zero block is charged and
      counted like any write but stores nothing, so mkfs's
      zero-the-volume pass costs no memory.

    {!snapshot} and {!restore} are O(dirty). Frozen images are never
    written in place, so one image may be restored into any number of
    devices across any number of domains. *)

type params = Model.params = {
  block_size : int;  (** bytes per block (default 4096) *)
  num_blocks : int;  (** default 2048 (an 8 MiB volume) *)
  seek_min_ms : float;  (** track-to-track seek (default 0.8) *)
  seek_span_ms : float;  (** extra for a full-stroke seek (default 7.2) *)
  rotation_ms : float;  (** full revolution, 7200 RPM ~ 8.33 *)
  bandwidth_mb_s : float;  (** media transfer rate (default 40.0) *)
  seed : int;  (** PRNG seed for rotational positions *)
}

val default_params : params

val chunk_blocks : int
(** [512] blocks per image chunk — 2 MiB at the default block size. *)

(** {1 Images} *)

type image
(** An immutable disk image; distinct images share their clean chunks
    and blocks. *)

val blank_image : block_size:int -> num_blocks:int -> image
(** The all-zeroes image, O(num_blocks / chunk_blocks) words. *)

val image_block : image -> int -> bytes
(** The frozen buffer for one block — {b do not mutate}. Untouched
    blocks return the shared zero block. *)

val image_chunks_touched : image -> int
(** Materialized chunks — the image's footprint in chunk units. *)

val image_blocks_touched : image -> int
(** Blocks holding private (non-zero-aliased) buffers. *)

(** {1 The device} *)

type t

val create : ?params:params -> unit -> t
(** A fresh device over the blank image. *)

val dev : t -> Dev.t

val dirty_count : t -> int
(** Blocks held by the overlay: written since the last
    {!restore}/{!snapshot}, zero writes onto zero blocks excluded. *)

(** {2 Statistics} *)

type stats = Model.stats = {
  reads : int;
  writes : int;
  syncs : int;
  seeks : int;  (** requests that required arm movement *)
  elapsed_ms : float;  (** total simulated service time *)
}

val stats : t -> stats
val reset_stats : t -> unit

val set_time_model : t -> bool -> unit
(** Disable ([false]) or enable the service-time model. Fingerprinting
    campaigns disable it (they care about behaviour, not time); the
    benchmark harness enables it. Default: enabled. *)

(** {2 Raw access for setup, verification and snapshots}

    These bypass the timing model and statistics. *)

val peek : t -> int -> bytes
val poke : t -> int -> bytes -> unit

val snapshot : t -> image
(** Freeze the current state: O(dirty) byte work plus one pointer-array
    copy per chunk holding a dirty block; clean chunks are shared. The
    device continues over the new image with an empty overlay. *)

val restore : t -> image -> unit
(** Point the device at the image, dropping the overlay (O(dirty),
    slots recycled) and resetting statistics, clock and head position
    — identical initial conditions for every run.
    @raise Invalid_argument if the image's block size or block count
    differs from the device's. *)
