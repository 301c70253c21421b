(** Generic path resolution over an abstract inode/object store.

    Every file-system model supplies four callbacks and gets POSIX path
    walking (symlink following with a loop bound, cwd/root handling,
    ENOTDIR checks) for free. All seven brands resolve through it.

    The walk reads through the callbacks in one fixed order. For each
    component it reads the directory's node ({!ops.node}) and checks
    its kind, looks the name up in it ({!ops.lookup}, handed the node
    just read), then reads the child's node and checks its kind. A
    symlink's target comes from the child's node already read. So each
    object is read once per component that reaches it: a store whose
    reads verify or log (ixt3's checksums) logs each read once. *)

type 'n ops = {
  node : int -> ('n, Errno.t) result;  (** read an object's node *)
  kind : child:bool -> int -> 'n -> (Fs.kind, Errno.t) result;
      (** The node's kind, or an error for a free slot. [child] is true
          when a name just led the walk to the object, false when the
          walk reads it as the directory to look the next name up in. *)
  target : 'n -> string;  (** a symlink node's target *)
  lookup : int -> 'n -> string -> (int, Errno.t) result;
      (** child of a directory object, given its node, by name *)
}

val resolve :
  'n ops -> root:int -> cwd:int -> ?follow_last:bool -> string -> (int, Errno.t) result
(** [follow_last] (default true) decides only whether a symlink named
    by the path's last component is followed; symlinks met anywhere
    else are followed to the end of their targets. *)

val resolve_parent :
  'n ops -> root:int -> cwd:int -> string -> (int * string, Errno.t) result
(** Parent directory object and final component name. Validates the
    name before it walks, and returns [ENOTDIR] when the parent is not
    a directory. *)
