type kind = Regular | Directory | Symlink

let kind_to_string = function
  | Regular -> "file"
  | Directory -> "dir"
  | Symlink -> "symlink"

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
  f_blocks : int;
  f_bfree : int;
  f_files : int;
  f_ffree : int;
  f_bsize : int;
}

type open_mode = Rd | Wr | Rdwr
type fd = int

module type S = sig
  val fs_name : string
  val block_types : string list
  val classifier : (int -> bytes) -> int -> string
  val corrupt_field : string -> (bytes -> unit) option

  type t

  val mkfs : Iron_disk.Dev.t -> (unit, Errno.t) result
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

type boxed = Boxed : (module S with type t = 'a) * 'a -> boxed
type brand = Brand : (module S with type t = 'a) -> brand

let brand_name (Brand (module F)) = F.fs_name
let mkfs (Brand (module F)) dev = F.mkfs dev

let mount (Brand (module F)) dev =
  match F.mount dev with
  | Ok t -> Ok (Boxed ((module F), t))
  | Error e -> Error e
