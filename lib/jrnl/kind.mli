(** Typed block-layout vocabulary for the journal core.

    A file system hands the journal a total map [blkno -> Kind.t]
    describing its on-disk regions. The engines use it to enforce the
    one invariant that holds across every journaling design in the
    paper — the journal never journals its own region — and the
    refinement harness uses it to reason about which blocks a crash
    state may legally scramble. *)

type t =
  | Superblock  (** primary or copy superblock *)
  | Gdesc  (** group-descriptor / allocation-descriptor block *)
  | Bitmap  (** block allocation bitmap *)
  | Ibitmap  (** inode allocation bitmap *)
  | Inode  (** inode-table block *)
  | Dir  (** statically known directory block *)
  | Data  (** file-data region (dir/indirect blocks allocated here are
              classified by the call site, not the static map) *)
  | Jsb  (** journal superblock *)
  | Jdata  (** journal log space *)
  | Cksum  (** checksum-table region (ixt3 Mc/Dc) *)
  | Rlog  (** replica log (ixt3 Mr) *)
  | Rmap  (** dynamic-replica map (ixt3 Mr) *)
  | Replica  (** fixed replica region (ixt3 Mr) *)
  | Unknown

val to_string : t -> string
val is_journal_region : t -> bool
