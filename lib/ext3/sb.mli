(** Superblock codec.

    The superblock records the geometry (so the classifier and a later
    mount can recompute {!Layout.t}), the clean/dirty state, cached free
    counts, and which IRON features the volume was formatted with.
    Stock ext3 writes copies of the superblock into each block group at
    mkfs and never updates them (the paper calls this out as useless
    redundancy, §5.1); ixt3 refreshes the copies at unmount. *)

type state = Clean | Dirty

type t = {
  block_size : int;
  num_blocks : int;
  state : state;
  mount_count : int;
  free_blocks : int;
  free_inodes : int;
  features : int;  (** bit 0 Mc, 1 Dc, 2 Mr, 3 Dp, 4 Tc *)
}

val encode : t -> bytes -> unit
(** Serializes into the beginning of a block-sized buffer. *)

val decode : bytes -> (t, Iron_vfs.Errno.t) result
(** Fails with [EUCLEAN] on a bad magic or an impossible geometry,
    including one that {!Layout.make} finds no layout for. *)

val features_of_profile : Profile.t -> int
