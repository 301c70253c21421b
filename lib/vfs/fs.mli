(** The VFS-level interface every file system under test implements.

    The operation set mirrors the paper's workload table (Table 3): each
    singlet workload stresses one of these entry points. Operations take
    absolute or cwd-relative paths; [read]/[write]/[fsync] take a file
    descriptor from [open_] or [creat].

    A file system that decides to crash calls {!Klog.panic}; the caller
    (the fingerprinting machine, or an example program) catches
    {!Klog.Panic}. A file system that remounts itself read-only reports
    it via [is_readonly] and fails subsequent updates with [EROFS]. *)

type kind = Regular | Directory | Symlink

val kind_to_string : kind -> string

type stat = {
  st_ino : int;
  st_kind : kind;
  st_size : int;
  st_links : int;
  st_mode : int;
  st_uid : int;
  st_gid : int;
  st_atime : float;
  st_mtime : float;
  st_ctime : float;
}

type statfs = {
  f_blocks : int;  (** total data blocks *)
  f_bfree : int;
  f_files : int;  (** total inodes *)
  f_ffree : int;
  f_bsize : int;
}

type open_mode = Rd | Wr | Rdwr

type fd = int

module type S = sig
  val fs_name : string

  val block_types : string list
  (** The rows of this file system's Figure-2 matrix. *)

  val classifier : (int -> bytes) -> int -> string
  (** [classifier raw] builds the gray-box block-type oracle: [raw b]
      reads block [b] directly from the medium (no faults, no timing).
      The oracle may sniff magic numbers to distinguish, e.g., journal
      descriptor blocks from journaled data. Returns a member of
      [block_types], or ["?"] for blocks it cannot name. *)

  val corrupt_field : string -> (bytes -> unit) option
  (** Type-aware corruption: given a block type, a mutation that leaves
      the block plausible but wrong (e.g. an inode whose link count is
      garbage), per §4.2. [None] means: use random noise. *)

  type t

  val mkfs : Iron_disk.Dev.t -> (unit, Errno.t) result
  (** Format a device that reads zero at every block, as a fresh
      [Memdisk] or a restored [Memdisk.blank_image] does. mkfs writes
      only the blocks its layout defines, so on a device holding
      anything else the blocks it leaves alone keep their bytes. *)

  val mount : Iron_disk.Dev.t -> (t, Errno.t) result
  val unmount : t -> (unit, Errno.t) result
  val klog : t -> Klog.t
  val is_readonly : t -> bool

  val access : t -> string -> (unit, Errno.t) result
  val chdir : t -> string -> (unit, Errno.t) result
  val chroot : t -> string -> (unit, Errno.t) result
  val stat : t -> string -> (stat, Errno.t) result
  val lstat : t -> string -> (stat, Errno.t) result
  val statfs : t -> (statfs, Errno.t) result
  val open_ : t -> string -> open_mode -> (fd, Errno.t) result
  val close : t -> fd -> (unit, Errno.t) result
  val creat : t -> string -> (fd, Errno.t) result
  val read : t -> fd -> off:int -> len:int -> (bytes, Errno.t) result
  val write : t -> fd -> off:int -> bytes -> (int, Errno.t) result
  val readlink : t -> string -> (string, Errno.t) result
  val getdirentries : t -> string -> ((string * int) list, Errno.t) result
  val link : t -> string -> string -> (unit, Errno.t) result
  val symlink : t -> string -> string -> (unit, Errno.t) result
  val mkdir : t -> string -> (unit, Errno.t) result
  val rmdir : t -> string -> (unit, Errno.t) result
  val unlink : t -> string -> (unit, Errno.t) result
  val rename : t -> string -> string -> (unit, Errno.t) result
  val truncate : t -> string -> int -> (unit, Errno.t) result
  val chmod : t -> string -> int -> (unit, Errno.t) result
  val chown : t -> string -> int -> int -> (unit, Errno.t) result
  val utimes : t -> string -> float -> float -> (unit, Errno.t) result
  val fsync : t -> fd -> (unit, Errno.t) result
  val sync : t -> (unit, Errno.t) result
end

(** A mounted file system whose concrete type is hidden; the
    fingerprinting engine works over these. *)
type boxed = Boxed : (module S with type t = 'a) * 'a -> boxed

(** A file system "brand": everything needed to mkfs/mount fresh
    instances generically. *)
type brand = Brand : (module S with type t = 'a) -> brand

val brand_name : brand -> string
val mkfs : brand -> Iron_disk.Dev.t -> (unit, Errno.t) result
val mount : brand -> Iron_disk.Dev.t -> (boxed, Errno.t) result
