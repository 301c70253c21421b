(** Balanced-tree node and item codecs for the ReiserFS model.

    Every node (internal or leaf) starts with a block header carrying
    its level, item count and free space — exactly the fields the real
    system sanity-checks on each access (paper §5.2). Leaves hold typed
    items ordered by {!key}; internal nodes hold separator keys and
    child pointers.

    Geometry is scaled down (at most {!max_leaf_items} items per leaf,
    {!max_children} children per internal node) so the standard fixture
    already produces a three-level tree, exercising root, internal and
    leaf paths. *)

type item_kind = Stat | Dirent | Direct | Indirect

type key = { objid : int; kind : item_kind; offset : int }

val compare_key : key -> key -> int

type stat_body = {
  sk : Iron_vfs.Fs.kind;
  links : int;
  uid : int;
  gid : int;
  perms : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
  target : string;  (** symlink target, inline *)
}

type body =
  | Stat_body of stat_body
  | Dirent_body of (string * int) list
  | Direct_body of string
      (** a small file (or tail) stored inline in the leaf — the
          "direct item" of Table 4 *)
  | Indirect_body of int array  (** unformatted-block pointers *)

type item = { key : key; body : body }

type node =
  | Leaf of item list
  | Internal of key list * int list  (** n separator keys, n+1 children *)

val max_children : int
val max_indirect_ptrs : int

val max_direct_bytes : int
(** Largest file stored as a direct item; beyond this it converts to
    unformatted blocks behind an indirect item. *)

type header = { level : int; nitems : int; free_space : int }

val decode_header : bytes -> header
val header_plausible : int -> header -> bool
(** Block-size-aware sanity check: level within bounds, item count and
    free space possible. This is the check ReiserFS runs on every node
    it touches. *)

val encode : int -> node -> bytes -> unit
(** [encode block_size node buf]; raises [Failure] if the node cannot
    fit (callers must split first). *)

val decode : bytes -> node option
(** [None] when the header fails {!header_plausible} or the items are
    structurally impossible. *)

val leaf_fits : int -> item list -> bool
