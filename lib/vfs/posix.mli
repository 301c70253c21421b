(** One POSIX namespace and attribute layer over a per-brand store.

    The paper places each file system's failure policy in how its own
    code reacts to a failed or corrupted block (§4–§5); path lookup and
    the system-call surface belong to the shared VFS. [Make (S)]
    implements every {!Fs.S} namespace and attribute op once — access,
    chdir, chroot, stat, lstat, open, close, creat, readlink,
    getdirentries, link, symlink, mkdir, rmdir, unlink, rename, chmod,
    chown, utimes, fsync, and the descriptor, mode and EISDIR checks
    around read, write and truncate — over a store that reads and
    writes nodes, lists and edits directories, and moves file data.

    Every read, write and failure decision stays in the store, which
    the layer calls in one fixed order per op; it never asks which
    brand it serves. All seven brands are built on it. The ext3
    family's transaction bracket, goal group and stock-or-fixed checks
    are store values ({!STORE.txn}, {!STORE.alloc}, {!STORE.walk_free},
    {!STORE.open_check}, {!STORE.zero_links}, {!STORE.rename_frees});
    reiserfs, jfs and ntfs supply each as a plain value. The layer's
    parts serve the stores too: the path walk ({!Resolver}), the
    descriptor table ({!Fdtable}) and the block loop ({!each_block},
    {!patch}). *)

type attr = {
  kind : Fs.kind option;  (** [None]: a free slot *)
  links : int;
  perms : int;
  uid : int;
  gid : int;
  size : int;
  atime : int;  (** seconds of simulated time, as are the next two *)
  mtime : int;
  ctime : int;
  target : string;  (** a symlink's target *)
}
(** The attributes every store maps its nodes to. *)

module type STORE = sig
  type t
  (** A mounted store. *)

  type node
  (** One object's node as the store keeps it: a stat item, an inode,
      an MFT record. *)

  type dir
  (** A directory opened for listing and editing. *)

  val fs_name : string
  val block_types : string list
  val classifier : (int -> bytes) -> int -> string
  val corrupt_field : string -> (bytes -> unit) option
  val mkfs : Iron_disk.Dev.t -> (unit, Errno.t) result
  val mount : Iron_disk.Dev.t -> (t, Errno.t) result
  val unmount : t -> (unit, Errno.t) result

  val sync : t -> (unit, Errno.t) result
  val fsync : t -> (unit, Errno.t) result
  (** Make every update so far durable ([fsync] takes a live
      descriptor; which file it names does not matter to any store). *)

  val statfs : t -> Fs.statfs
  val dev : t -> Iron_disk.Dev.t
  val klog : t -> Klog.t
  val is_readonly : t -> bool

  val root : int
  (** The root directory's object id. *)

  val read : t -> int -> (node, Errno.t) result
  val write : t -> int -> node -> (unit, Errno.t) result
  val attr : node -> attr

  val with_attr : node -> attr -> node
  (** A store keeps only the attributes its format has room for. *)

  val open_dir : t -> int -> node option -> (dir, Errno.t) result
  (** [open_dir t o n]: directory [o], its node [n] when the layer has
      just read it and checked that it is a directory. With [None] the
      store reads what it needs, and checks only what its own format
      asks (ext3 answers [ENOTDIR] for an inode that is not a
      directory). *)

  val entries : t -> dir -> ((string * int) list, Errno.t) result
  val add_entry : t -> dir -> string -> int -> (unit, Errno.t) result
  val remove_entry : t -> dir -> string -> (unit, Errno.t) result

  val reparent : t -> int -> node -> int -> (unit, Errno.t) result
  (** [reparent t o node p]: directory [o] moved under [p]; point its
      [".."] there. *)

  val alloc : t -> parent:int -> (int, Errno.t) result
  (** A free object id for a new entry of directory [parent] (ext3
      looks in the parent's group first). *)

  val create : t -> int -> parent:int -> attr -> (unit, Errno.t) result
  (** Write the new object's node, and a directory's ["."] and [".."]. *)

  val destroy : t -> int -> node -> (unit -> (unit, Errno.t) result, Errno.t) result
  (** Free the object's data and node. The layer calls the function
      returned once the parent directory is updated: it reports, and
      may log, what freeing failed to do. *)

  val write_super : t -> (unit, Errno.t) result
  (** Called after each update that can allocate or free, last. *)

  val inline : t -> int -> (string option, Errno.t) result
  (** A file's bytes, when the store keeps them in its metadata. *)

  val read_block : t -> int -> node -> int -> (bytes, Errno.t) result
  (** File block [n], borrowed: the caller copies what it keeps. *)

  val write_data : t -> int -> node -> off:int -> bytes -> (node, Errno.t) result
  (** Store the bytes; returns the node to take the new size and
      times. *)

  val truncate :
    t -> int -> node -> int -> (node * (unit -> (unit, Errno.t) result), Errno.t) result
  (** Free or zero what lies past the new size; returns the node to
      take the size and times, and a function the layer calls once that
      node is written, as {!destroy}'s. *)

  val txn : t -> (unit -> ('a, Errno.t) result) -> ('a, Errno.t) result
  (** The bracket around every op that can update the volume: link,
      rename, creat, mkdir, symlink, rmdir, unlink, truncate, chmod,
      chown, utimes, and write past its descriptor checks. ext3 answers
      [EROFS] before the op reads a block, and folds its group
      descriptors into the running transaction after every op that
      succeeds; the other stores run the op as it is. *)

  val walk_free : t -> child:bool -> int -> unit
  (** The path walk met a free slot, and fails with [EIO]: as the
      directory to search ([child] false), or as the object a name led
      it to. ext3 logs each at error level, in its own words; that line
      is the detection the fingerprints read (§4.3). *)

  val open_check : t -> int -> node -> (unit, Errno.t) result
  (** Runs before open hands out a descriptor, on any node but a
      directory opened to write, free slots included; a free slot that
      passes fails with [EIO]. ext3 logs a free inode, and answers an
      impossible size with [EUCLEAN] (the paper's inode sanity
      check). *)

  val zero_links : t -> int -> (unit, Errno.t) result
  (** Unlink or rmdir found the object's link count at 0, before the
      name goes. Stock ext3 panics, the fixed profile answers
      [EUCLEAN] (§5.1); the other stores carry on. *)

  val rename_frees : bool
  (** How rename takes a file it replaces. [false]: as unlink would,
      through the path again, updating the parent's times and reporting
      what freeing failed to do. [true] (ext3): in place, with one link
      and, when that was the last, the object, leaving every time alone
      and dropping {!destroy}'s report. *)
end

module Make (S : STORE) : Fs.S

(** {2 Helpers for stores} *)

val kind_code : Fs.kind option -> int
(** The one-byte kind every store's node format carries: 0 for a free
    slot, then regular, directory and symlink as 1, 2 and 3. *)

val kind_of_code : int -> Fs.kind option
(** Any code other than 1, 2 and 3 reads as a free slot. *)

val put_entries : Iron_util.Codec.writer -> (string * int) list -> unit
(** Directory entries as every store lays them out: a u16 count, then
    per entry its u32 object id, u16 name length and name. *)

val get_entries : cap:int -> Iron_util.Codec.reader -> (string * int) list option
(** What {!put_entries} wrote, or [None] for a count above [cap] or a
    name running past the buffer.
    @raise Iron_util.Codec.Decode_error when an id or a length does. *)

val encode_entries : ?magic:int -> (string * int) list -> bytes -> unit
(** [encode_entries ?magic entries buf] zeroes [buf] and writes a
    directory block: the u32 [magic] when given, then {!put_entries}. *)

val decode_entries :
  ?magic:int -> cap:int -> bytes -> (string * int) list option
(** The entries {!encode_entries} wrote, or [None] when the block fails
    a check: a magic other than [magic], a count above [cap], or an
    entry running past the block. *)

val each_block :
  bs:int -> off:int -> len:int -> (int -> int -> int -> int -> (unit, Errno.t) result) ->
  (unit, Errno.t) result
(** [each_block ~bs ~off ~len f] calls [f fblock boff pos n] for each
    block-sized piece of the byte range [\[off, off + len)], in order:
    [n] bytes at offset [boff] of file block [fblock], which are bytes
    [pos] onward of the range. It stops at the first error. *)

val patch :
  bs:int -> bytes -> boff:int -> pos:int -> n:int ->
  (unit -> (bytes, Errno.t) result) -> (bytes, Errno.t) result
(** [patch ~bs data ~boff ~pos ~n old]: the block to write for one
    piece of [data] — the piece itself when it fills the block, else
    [old ()], a private copy of what the block holds, with the piece
    laid over it. *)
