(** Generic path resolution over an abstract inode/object store.

    Every file-system model supplies three callbacks and gets POSIX path
    walking (symlink following with a loop bound, cwd/root handling,
    ENOTDIR checks) for free. *)

type ops = {
  lookup : int -> string -> (int, Errno.t) result;
      (** child of a directory object by name *)
  kind_of : int -> (Fs.kind, Errno.t) result;
  readlink_of : int -> (string, Errno.t) result;
}

val resolve :
  ops -> root:int -> cwd:int -> ?follow_last:bool -> string -> (int, Errno.t) result

val resolve_parent :
  ops -> root:int -> cwd:int -> string -> (int * string, Errno.t) result
(** Parent directory object and final component name. Validates the
    component, and returns [ENOTDIR] when the parent is not a
    directory. *)
