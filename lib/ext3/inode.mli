(** 128-byte on-disk inode codec.

    Pointer geometry comes from {!Layout}: [direct] direct pointers,
    then single, double and triple indirect pointers. A block pointer of
    0 means "hole". Symlink targets up to 48 bytes are stored inline
    ("fast symlinks"), so short symlinks occupy no data block — as in
    real ext3. *)

type kind = Free | Regular | Directory | Symlink

type t = {
  kind : kind;
  links : int;
  uid : int;
  gid : int;
  perms : int;
  size : int;
  atime : int;  (** seconds *)
  mtime : int;
  ctime : int;
  nblocks : int;  (** data + indirect blocks charged to the file *)
  direct : int array;  (** length {!Layout.t.direct_ptrs} *)
  ind : int;
  dind : int;
  tind : int;
  parity : int;  (** ixt3 Dp: the file's parity block, 0 if none *)
  symlink_target : string;
}

val kind_at : bytes -> int -> kind
(** [kind_at buf off] is [(decode lay buf off).kind], read from the
    slot's first byte alone. *)

val empty : Layout.t -> t
val fresh : Layout.t -> kind -> perms:int -> time:int -> t

val encode : Layout.t -> t -> bytes -> int -> unit
(** [encode lay ino buf off] writes the 128-byte image at [off]. *)

val decode : Layout.t -> bytes -> int -> t
(** Total: any 128 bytes decode to {e some} inode — corruption produces
    garbage field values, never an exception. Sanity checking is the
    file system's job, not the codec's. *)

val max_file_blocks : Layout.t -> int
(** Number of data blocks addressable before EFBIG. *)
