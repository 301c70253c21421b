(** On-disk layout of the simulated ext3 volume.

    {v
    +---------+--------+-----------------+-------- ... --------+-------+---------+
    | 0 super | 1 gdesc| journal (jlen)  | block groups        | cksum | replica |
    +---------+--------+-----------------+-------- ... --------+-------+---------+
    v}

    Each block group is [super copy | data bitmap | inode bitmap |
    inode table (itable_blocks) | data blocks]. The checksum and replica
    regions exist in every volume (layout is profile-independent) but are
    written only when the corresponding IRON feature is enabled; placing
    them at the far end of the disk satisfies the paper's requirement
    that redundant copies live "distant from the blocks they checksum"
    (§6.1) and away from spatially-local faults (§3.3).

    Geometry is scaled down from real ext3 (128-byte inodes, 16 block
    pointers per indirect block, 4 direct pointers) so that small files
    still exercise the indirect, double- and triple-indirect paths the
    paper's workloads stress (§4.1). *)

type t = {
  block_size : int;
  num_blocks : int;
  inode_size : int;  (** 128 *)
  inodes_per_block : int;
  direct_ptrs : int;  (** 4 *)
  ptrs_per_block : int;  (** 16 — scaled-down fanout *)
  journal_start : int;  (** block number of the journal superblock *)
  journal_len : int;  (** blocks including the journal superblock *)
  groups_start : int;
  blocks_per_group : int;
  itable_blocks : int;
  inodes_per_group : int;
  ngroups : int;
  cksum_start : int;
  cksum_blocks : int;
  rlog_start : int;  (** the replica log: commit-time copies land here *)
  rlog_blocks : int;
  rmap_start : int;  (** dynamic-replica map: one u32 slot per block *)
  rmap_blocks : int;
  replica_start : int;
  replica_blocks : int;
  cksum_per_block : int;  (** SHA-1 digests per checksum-table block *)
}

val make : block_size:int -> num_blocks:int -> (t, string) result
(** The layout, or why no layout fits: a device too small for even one
    group, or a volume too large for one-block bitmaps. *)

val compute : block_size:int -> num_blocks:int -> t
(** {!make}, raising [Failure] where it returns an error. *)

(** {2 Per-group block numbers} *)

val super_copy_block : t -> int -> int
val bitmap_block : t -> int -> int
val ibitmap_block : t -> int -> int

val itable_block : t -> int -> int
(** First inode-table block of a group. *)

val data_start : t -> int -> int
(** First data block of a group. *)

val data_blocks_per_group : t -> int

val group_of_block : t -> int -> int option
(** Which group a block belongs to, if it is inside the groups region. *)

val group_of_inode : t -> int -> int
val inode_location : t -> int -> int * int
(** [inode_location l ino] is [(block, offset_within_block)].
    Inode numbers start at 1; inode 2 is the root directory. *)

val total_inodes : t -> int
val total_data_blocks : t -> int

(** {2 Redundancy regions} *)

val cksum_location : t -> int -> int * int
(** Block and byte offset of the stored SHA-1 for a given block. *)

val replica_targets : t -> int list
(** The metadata blocks that [Mr] mirrors, in replica-slot order: the
    group-descriptor block, the journal superblock, then per group its
    bitmap, inode bitmap and inode-table blocks. *)

val replica_of : t -> int -> int option
(** Replica-region block holding the mirror of a given metadata block:
    [replica_start] plus the block's index in {!replica_targets},
    computed without building the list. *)

val rmap_location : t -> int -> int * int
(** Block and byte offset of the dynamic-replica-map slot for a block.
    Dynamically allocated metadata (directory and indirect blocks) gets
    its mirror allocated on first write and recorded here. *)

val journal_geo : t -> Iron_jrnl.Jrnl.geometry
(** The journal region as the journal engine sees it. *)

val root_ino : int
