open Iron_util
module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fs = Iron_vfs.Fs
module Obs = Iron_obs.Obs
module Fdtable = Iron_vfs.Fdtable
module Resolver = Iron_vfs.Resolver

let ( let* ) = Result.bind

(* ---- layout --------------------------------------------------------- *)

let super_block = 1
let journal_start = 2
let journal_len = 64
let super_magic = 0x52654673 (* "ReFs" *)
let jheader_magic = 0x524A4148 (* "RJAH" *)
let jdesc_magic = 0x524A4445
let jcommit_magic = 0x524A434F
let root_objid = 2
let first_objid = 3

type super = {
  mutable root_block : int;
  mutable free_blocks : int;
  mutable next_objid : int;
  num_blocks : int;
  bitmap_start : int;
  bitmap_blocks : int;
  first_data : int;
}

let encode_super s buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w super_magic;
  Codec.put_u32 w s.num_blocks;
  Codec.put_u32 w s.root_block;
  Codec.put_u32 w s.free_blocks;
  Codec.put_u32 w s.next_objid;
  Codec.put_u32 w s.bitmap_start;
  Codec.put_u32 w s.bitmap_blocks;
  Codec.put_u32 w s.first_data

let decode_super buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> super_magic then None
    else
      let num_blocks = Codec.get_u32 r in
      let root_block = Codec.get_u32 r in
      let free_blocks = Codec.get_u32 r in
      let next_objid = Codec.get_u32 r in
      let bitmap_start = Codec.get_u32 r in
      let bitmap_blocks = Codec.get_u32 r in
      let first_data = Codec.get_u32 r in
      if num_blocks < 8 || root_block >= num_blocks then None
      else
        Some
          { root_block; free_blocks; next_objid; num_blocks; bitmap_start;
            bitmap_blocks; first_data }
  with Codec.Decode_error _ -> None

(* ---- state ---------------------------------------------------------- *)

type fdesc = { fd_obj : int; fd_mode : Fs.open_mode }

type state = {
  dev : Dev.t;
  bs : int;
  klog : Klog.t;
  cache : Bcache.t;
  zeros : bytes; (* read-only, like every borrowed buffer: holes read as it *)
  super : super;
  (* journaling, ext3-style write-ahead block log *)
  txn : (int, bytes) Hashtbl.t;
  mutable txn_order : int list;
  pending : (int, bytes) Hashtbl.t;
  mutable pending_order : int list;
  mutable jhead : int;
  mutable jseq : int;
  fds : fdesc Fdtable.t;
  mutable cwd : int;
  mutable root : int;
  mutable readonly : bool;
}

let zero_block t = Bytes.make t.bs '\000'
let now_seconds t = int_of_float (t.dev.Dev.now () /. 1000.)
let jend = journal_start + journal_len

(* ---- block access with journal overlay ------------------------------ *)

let overlay_find t b =
  match Hashtbl.find_opt t.txn b with
  | Some d -> Some d
  | None -> Hashtbl.find_opt t.pending b

(* Reads borrow: they return the overlay's image or the cache's buffer
   itself, read-only. An overlay image stays valid for as long as its
   reader holds it, just as a cache buffer does: [txn_put] stages a
   fresh copy, which a later stage replaces and a checkpoint drops, and
   nothing writes an overlay image in place or hands it to the arena.
   Every site that modifies what it read takes a private copy through
   [owned]. *)
let block_read_raw t b =
  match overlay_find t b with
  | Some d -> Ok d
  | None -> (
      match Bcache.borrow t.cache b with
      | Ok d -> Ok d
      | Error _ -> Error Errno.EIO)

let owned r = Result.map Bytes.copy r

let txn_put t b data =
  if t.readonly then Klog.panic t.klog "reiserfs" "write to read-only filesystem";
  if not (Hashtbl.mem t.txn b) then t.txn_order <- b :: t.txn_order;
  Hashtbl.replace t.txn b (Bytes.copy data)

let meta_write t b data =
  txn_put t b data;
  Ok ()

(* ---- journal -------------------------------------------------------- *)

let encode_jheader t seq start =
  let buf = zero_block t in
  let w = Codec.writer buf in
  Codec.put_u32 w jheader_magic;
  Codec.put_u32 w seq;
  Codec.put_u32 w start;
  buf

let decode_jheader buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> jheader_magic then None
    else
      let seq = Codec.get_u32 r in
      let start = Codec.get_u32 r in
      Some (seq, start)
  with Codec.Decode_error _ -> None

let encode_jdesc t seq tags =
  let buf = zero_block t in
  let w = Codec.writer buf in
  Codec.put_u32 w jdesc_magic;
  Codec.put_u32 w seq;
  Codec.put_u32 w (List.length tags);
  List.iter (Codec.put_u32 w) tags;
  buf

let decode_jdesc buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> jdesc_magic then None
    else
      let seq = Codec.get_u32 r in
      let count = Codec.get_u32 r in
      if count > (Bytes.length buf - 12) / 4 then None
      else Some (seq, List.init count (fun _ -> Codec.get_u32 r))
  with Codec.Decode_error _ -> None

let encode_jcommit t seq =
  let buf = zero_block t in
  let w = Codec.writer buf in
  Codec.put_u32 w jcommit_magic;
  Codec.put_u32 w seq;
  buf

let decode_jcommit buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> jcommit_magic then None else Some (Codec.get_u32 r)
  with Codec.Decode_error _ -> None

(* Any failed metadata write panics the machine: first, do no harm. *)
let must_write t b data what =
  match t.dev.Dev.write b data with
  | Ok () -> ()
  | Error _ -> Klog.panic t.klog "reiserfs" "%s write to block %d failed; panicking" what b

let checkpoint t =
  Obs.span_a ~subsystem:"jrnl" "checkpoint" @@ fun () ->
  List.iter
    (fun b ->
      match Hashtbl.find_opt t.pending b with
      | None -> ()
      | Some data -> (
          match Bcache.write t.cache b data with
          | Ok () -> ()
          | Error _ -> Klog.panic t.klog "reiserfs" "checkpoint write to block %d failed" b))
    (List.sort compare (List.rev t.pending_order));
  Hashtbl.reset t.pending;
  t.pending_order <- [];
  (* The home-location writes must be durable before the journal header
     truncates the log: a crash that persisted the advanced header while
     a checkpoint write was still in flight would have no replay path. *)
  ignore (t.dev.Dev.sync ());
  t.jhead <- journal_start + 1;
  must_write t journal_start (encode_jheader t t.jseq t.jhead) "journal header";
  ignore (t.dev.Dev.sync ())

let commit t =
  if Hashtbl.length t.txn = 0 then Ok ()
  else
    Obs.span_a ~subsystem:"jrnl" "commit" @@ fun () ->
    begin
    let blocks = List.rev t.txn_order in
    let needed = 2 + List.length blocks in
    if t.jhead + needed > jend then checkpoint t;
    if t.jhead + needed > jend then begin
      (* Oversized transaction: flush directly (see ext3 note). *)
      List.iter
        (fun b ->
          match Hashtbl.find_opt t.txn b with
          | Some data -> (
              match Bcache.write t.cache b data with
              | Ok () -> ()
              | Error _ -> Klog.panic t.klog "reiserfs" "direct flush write failed")
          | None -> ())
        blocks;
      Hashtbl.reset t.txn;
      t.txn_order <- [];
      Ok ()
    end
    else begin
      let seq = t.jseq in
      must_write t t.jhead (encode_jdesc t seq blocks) "journal descriptor";
      let pos = ref (t.jhead + 1) in
      List.iter
        (fun b ->
          (match Hashtbl.find_opt t.txn b with
          | Some data -> must_write t !pos data "journal data"
          | None -> ());
          incr pos)
        blocks;
      ignore (t.dev.Dev.sync ());
      must_write t !pos (encode_jcommit t seq) "journal commit";
      incr pos;
      ignore (t.dev.Dev.sync ());
      t.jhead <- !pos;
      t.jseq <- seq + 1;
      List.iter
        (fun b ->
          match Hashtbl.find_opt t.txn b with
          | None -> ()
          | Some data ->
              if not (Hashtbl.mem t.pending b) then
                t.pending_order <- b :: t.pending_order;
              Hashtbl.replace t.pending b data)
        blocks;
      Hashtbl.reset t.txn;
      t.txn_order <- [];
      Ok ()
    end
  end

(* ---- allocation ----------------------------------------------------- *)

let bit_get buf i = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set buf i on =
  let v = Char.code (Bytes.get buf (i / 8)) in
  let v' = if on then v lor (1 lsl (i mod 8)) else v land lnot (1 lsl (i mod 8)) in
  Bytes.set buf (i / 8) (Char.chr (v' land 0xFF))

let alloc_block t =
  let per = t.bs * 8 in
  let rec try_map m =
    if m >= t.super.bitmap_blocks then Error Errno.ENOSPC
    else
      let bb = t.super.bitmap_start + m in
      let* buf = block_read_raw t bb in
      let base = m * per in
      let limit = min per (t.super.num_blocks - base) in
      let rec find i =
        if i >= limit then None
        else if not (bit_get buf i) && base + i >= t.super.first_data then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> try_map (m + 1)
      | Some i ->
          let buf = Bytes.copy buf in
          bit_set buf i true;
          let* () = meta_write t bb buf in
          t.super.free_blocks <- t.super.free_blocks - 1;
          Ok (base + i)
  in
  try_map 0

let free_block t b =
  if b < t.super.first_data || b >= t.super.num_blocks then Ok ()
  else begin
    let per = t.bs * 8 in
    let bb = t.super.bitmap_start + (b / per) in
    let* buf = block_read_raw t bb in
    if bit_get buf (b mod per) then begin
      let buf = Bytes.copy buf in
      bit_set buf (b mod per) false;
      let* () = meta_write t bb buf in
      t.super.free_blocks <- t.super.free_blocks + 1;
      Ok ()
    end
    else Ok ()
  end

let write_super t =
  let buf = Bytes.make t.bs '\000' in
  encode_super t.super buf;
  meta_write t super_block buf

(* ---- tree ----------------------------------------------------------- *)

(* Node sanity failure during tree traversal: ReiserFS panics rather
   than returning an error (a bug the paper calls out). Read failure of
   a node: propagate, with an optional single retry on delete paths. *)
let read_node t ?(retry = false) b =
  let attempt () = block_read_raw t b in
  let* buf =
    match attempt () with
    | Ok d -> Ok d
    | Error _ when retry ->
        Klog.warn t.klog "reiserfs" "retrying read of tree block %d" b;
        attempt ()
    | Error e -> Error e
  in
  match Rnode.decode buf with
  | Some node -> Ok node
  | None -> Klog.panic t.klog "reiserfs" "bad block header in tree block %d (sanity check failed)" b

let write_node t b node =
  let buf = zero_block t in
  Rnode.encode t.bs node buf;
  meta_write t b buf

(* Descend to the leaf that should contain [key]; returns the path of
   (block, node, child_index) from root to leaf, leaf last. *)
let descend t ?retry key =
  let rec go b acc =
    (* Journal replay installs stale block images without content checks
       (§5.2), so an internal node can end up pointing back up the path
       — an unbounded traversal without this check. A cycle is a sanity
       failure like a bad header: ReiserFS panics. *)
    if List.exists (fun (b', _, _) -> b' = b) acc then
      Klog.panic t.klog "reiserfs" "cycle in tree at block %d (sanity check failed)" b;
    let* node = read_node t ?retry b in
    match node with
    | Rnode.Leaf _ -> Ok ((b, node, 0) :: acc)
    | Rnode.Internal (keys, children) ->
        let rec pick i = function
          | [] -> i
          | k :: rest -> if Rnode.compare_key key k < 0 then i else pick (i + 1) rest
        in
        let idx = pick 0 keys in
        go (List.nth children idx) ((b, node, idx) :: acc)
  in
  let* path = go t.super.root_block [] in
  Ok (List.rev path)

let find_item t ?retry key =
  let* path = descend t ?retry key in
  match List.rev path with
  | (b, Rnode.Leaf items, _) :: _ -> (
      match List.find_opt (fun it -> Rnode.compare_key it.Rnode.key key = 0) items with
      | Some it -> Ok (Some (b, items, it))
      | None -> Ok None)
  | _ -> Ok None

let split_list l =
  let n = List.length l in
  let rec take k = function
    | [] -> ([], [])
    | x :: rest ->
        if k = 0 then ([], x :: rest)
        else
          let a, b = take (k - 1) rest in
          (x :: a, b)
  in
  take ((n + 1) / 2) l

(* Insert a (separator, child) pair into the ancestors; splits propagate
   upward, growing the tree at the root. [path] is root-first and does
   not include the split child itself. *)
let rec insert_into_parent t path sep newchild =
  match List.rev path with
  | [] ->
      (* The root itself split: grow the tree. *)
      let* nb = alloc_block t in
      let old_root = t.super.root_block in
      let* () = write_node t nb (Rnode.Internal ([ sep ], [ old_root; newchild ])) in
      t.super.root_block <- nb;
      write_super t
  | (b, Rnode.Internal (keys, children), idx) :: rest ->
      let keys' =
        List.filteri (fun i _ -> i < idx) keys
        @ [ sep ]
        @ List.filteri (fun i _ -> i >= idx) keys
      in
      let children' =
        List.filteri (fun i _ -> i <= idx) children
        @ [ newchild ]
        @ List.filteri (fun i _ -> i > idx) children
      in
      if List.length children' <= Rnode.max_children then
        write_node t b (Rnode.Internal (keys', children'))
      else begin
        (* Split this internal node. *)
        let n = List.length children' in
        let lc = (n + 1) / 2 in
        let left_children = List.filteri (fun i _ -> i < lc) children' in
        let right_children = List.filteri (fun i _ -> i >= lc) children' in
        let up_key = List.nth keys' (lc - 1) in
        let left_keys = List.filteri (fun i _ -> i < lc - 1) keys' in
        let right_keys = List.filteri (fun i _ -> i >= lc) keys' in
        let* nb = alloc_block t in
        let* () = write_node t b (Rnode.Internal (left_keys, left_children)) in
        let* () = write_node t nb (Rnode.Internal (right_keys, right_children)) in
        insert_into_parent t (List.rev rest) up_key nb
      end
  | (_, Rnode.Leaf _, _) :: _ -> Error Errno.EUCLEAN

(* Insert or replace an item. *)
let set_item t ?retry item =
  let key = item.Rnode.key in
  let* path = descend t ?retry key in
  match List.rev path with
  | (b, Rnode.Leaf items, _) :: rev_rest ->
      let items' =
        List.filter (fun it -> Rnode.compare_key it.Rnode.key key <> 0) items
      in
      let items' =
        List.sort (fun a bb -> Rnode.compare_key a.Rnode.key bb.Rnode.key)
          (item :: items')
      in
      if Rnode.leaf_fits t.bs items' then write_node t b (Rnode.Leaf items')
      else begin
        let left, right = split_list items' in
        let* nb = alloc_block t in
        let* () = write_node t b (Rnode.Leaf left) in
        let* () = write_node t nb (Rnode.Leaf right) in
        let sep =
          match right with it :: _ -> it.Rnode.key | [] -> key
        in
        insert_into_parent t (List.rev rev_rest) sep nb
      end
  | _ -> Error Errno.EUCLEAN

(* Delete the item with [key], pruning empty nodes up the tree. *)
let delete_item t ?retry key =
  let* path = descend t ?retry key in
  match List.rev path with
  | (b, Rnode.Leaf items, _) :: rev_rest ->
      let items' =
        List.filter (fun it -> Rnode.compare_key it.Rnode.key key <> 0) items
      in
      if items' <> [] || rev_rest = [] then write_node t b (Rnode.Leaf items')
      else begin
        (* Leaf drained: remove it from its parent chain. *)
        let* () = free_block t b in
        let rec prune rev_path removed_child =
          match rev_path with
          | [] ->
              (* Root drained to nothing: reinstall an empty leaf. *)
              let* nb = alloc_block t in
              let* () = write_node t nb (Rnode.Leaf []) in
              t.super.root_block <- nb;
              write_super t
          | (pb, Rnode.Internal (keys, children), _) :: rest ->
              let idx =
                let rec find i = function
                  | [] -> None
                  | c :: cs -> if c = removed_child then Some i else find (i + 1) cs
                in
                find 0 children
              in
              (match idx with
              | None -> write_node t pb (Rnode.Internal (keys, children))
              | Some i ->
                  let children' = List.filteri (fun j _ -> j <> i) children in
                  let keys' = List.filteri (fun j _ -> j <> max 0 (i - 1)) keys in
                  (match children' with
                  | [] ->
                      let* () = free_block t pb in
                      prune rest pb
                  | [ only ] when rest = [] ->
                      (* Root with one child: shrink the height. *)
                      let* () = free_block t pb in
                      t.super.root_block <- only;
                      write_super t
                  | _ -> write_node t pb (Rnode.Internal (keys', children'))))
          | (_, Rnode.Leaf _, _) :: _ -> Error Errno.EUCLEAN
        in
        prune rev_rest b
      end
  | _ -> Ok ()

(* ---- object helpers ------------------------------------------------- *)

let stat_key objid = { Rnode.objid; kind = Rnode.Stat; offset = 0 }
let dirent_key objid = { Rnode.objid; kind = Rnode.Dirent; offset = 0 }

let direct_key objid = { Rnode.objid; kind = Rnode.Direct; offset = 0 }

(* The tail, if this object is stored as a direct item (small files live
   inline in the leaf; Table 4's "direct item"). *)
let read_tail t ?retry objid =
  let* hit = find_item t ?retry (direct_key objid) in
  match hit with
  | Some (_, _, { Rnode.body = Rnode.Direct_body tail; _ }) -> Ok (Some tail)
  | Some _ | None -> Ok None

let write_tail t objid tail =
  set_item t { Rnode.key = direct_key objid; body = Rnode.Direct_body tail }

let indirect_key objid fblock =
  {
    Rnode.objid;
    kind = Rnode.Indirect;
    offset = fblock / Rnode.max_indirect_ptrs * Rnode.max_indirect_ptrs;
  }

let read_stat t ?retry objid =
  let* hit = find_item t ?retry (stat_key objid) in
  match hit with
  | Some (_, _, { Rnode.body = Rnode.Stat_body s; _ }) -> Ok s
  | Some _ | None -> Error Errno.ENOENT

let write_stat t objid s =
  set_item t { Rnode.key = stat_key objid; body = Rnode.Stat_body s }

let read_dirents t ?retry objid =
  let* hit = find_item t ?retry (dirent_key objid) in
  match hit with
  | Some (_, _, { Rnode.body = Rnode.Dirent_body es; _ }) -> Ok es
  | Some _ | None -> Ok []

let write_dirents t objid es =
  set_item t { Rnode.key = dirent_key objid; body = Rnode.Dirent_body es }

(* ---- data I/O ------------------------------------------------------- *)

let file_block_ptr t ?retry objid fblock =
  let* hit = find_item t ?retry (indirect_key objid fblock) in
  match hit with
  | Some (_, _, { Rnode.body = Rnode.Indirect_body ptrs; _ }) ->
      let i = fblock mod Rnode.max_indirect_ptrs in
      Ok (if i < Array.length ptrs then ptrs.(i) else 0)
  | Some _ | None -> Ok 0

let data_read_block t objid fblock =
  let* ptr = file_block_ptr t objid fblock in
  if ptr = 0 then Ok t.zeros
  else if ptr >= t.super.num_blocks then begin
    Klog.error t.klog "reiserfs" "impossible unformatted block %d" ptr;
    Error Errno.EIO
  end
  else
    match block_read_raw t ptr with
    | Ok d -> Ok d
    | Error _ ->
        (* ReiserFS retries a failed data-block read once (§5.2). *)
        Klog.warn t.klog "reiserfs" "retrying data block %d" ptr;
        block_read_raw t ptr

let data_write_block t objid fblock data =
  let key = indirect_key objid fblock in
  let* hit = find_item t key in
  let ptrs =
    match hit with
    | Some (_, _, { Rnode.body = Rnode.Indirect_body ptrs; _ }) -> Array.copy ptrs
    | Some _ | None -> [||]
  in
  let i = fblock mod Rnode.max_indirect_ptrs in
  let ptrs =
    if i < Array.length ptrs then ptrs
    else begin
      let bigger = Array.make (i + 1) 0 in
      Array.blit ptrs 0 bigger 0 (Array.length ptrs);
      bigger
    end
  in
  let* ptr =
    if ptrs.(i) <> 0 then Ok ptrs.(i)
    else
      let* b = alloc_block t in
      ptrs.(i) <- b;
      let* () = set_item t { Rnode.key; body = Rnode.Indirect_body ptrs } in
      Ok b
  in
  (* Ordered data write: the paper's ReiserFS bug — a failed ordered
     data-block write is not handled at all; the transaction commits
     over it (RZero). *)
  (match Bcache.write t.cache ptr data with Ok () -> () | Error _ -> ());
  Ok ()

(* Free data blocks and indirect items from file block [from] upward.
   Read failures here are detected but ignored — the space-leak bug. *)
let free_file_from t objid ~from ~old_size =
  let nblocks = (old_size + t.bs - 1) / t.bs in
  let errors = ref 0 in
  let rec go fblock =
    if fblock >= nblocks then Ok ()
    else begin
      let key = indirect_key objid fblock in
      (match find_item t key with
      | Ok (Some (_, _, { Rnode.body = Rnode.Indirect_body ptrs; _ })) ->
          let base = key.Rnode.offset in
          Array.iteri
            (fun i p ->
              if p <> 0 && base + i >= from then
                match free_block t p with Ok () -> () | Error _ -> incr errors)
            ptrs;
          if base >= from then begin
            match delete_item t key with Ok () -> () | Error _ -> incr errors
          end
      | Ok (Some _) | Ok None -> ()
      | Error _ -> incr errors);
      go (key.Rnode.offset + Rnode.max_indirect_ptrs)
    end
  in
  let* () = go from in
  if !errors > 0 then
    Klog.warn t.klog "reiserfs" "%d errors while freeing object %d (space leaked)"
      !errors objid;
  Ok ()

(* ---- resolver ------------------------------------------------------- *)

let resolver_ops t =
  {
    Resolver.lookup =
      (fun dir name ->
        let* es = read_dirents t dir in
        match List.assoc_opt name es with
        | Some o -> Ok o
        | None -> Error Errno.ENOENT);
    kind_of =
      (fun o ->
        let* s = read_stat t o in
        Ok s.Rnode.sk);
    readlink_of =
      (fun o ->
        let* s = read_stat t o in
        Ok s.Rnode.target);
  }

let resolve t ?follow_last path =
  Resolver.resolve (resolver_ops t) ~root:t.root ~cwd:t.cwd ?follow_last path

let resolve_parent t path =
  Resolver.resolve_parent (resolver_ops t) ~root:t.root ~cwd:t.cwd path

(* ---- mkfs / mount --------------------------------------------------- *)

let mkfs_impl dev =
  let bs = dev.Dev.block_size in
  let num_blocks = dev.Dev.num_blocks in
  let per = bs * 8 in
  let bitmap_blocks = (num_blocks + per - 1) / per in
  let bitmap_start = journal_start + journal_len in
  let first_data = bitmap_start + bitmap_blocks in
  let root_block = first_data in
  let zero = Bytes.make bs '\000' in
  let wr b data =
    match dev.Dev.write b data with Ok () -> Ok () | Error _ -> Error Errno.EIO
  in
  let rec zero_all b =
    if b >= num_blocks then Ok ()
    else
      let* () = wr b zero in
      zero_all (b + 1)
  in
  let* () = zero_all 0 in
  (* Root directory: stat + empty-ish dirent items in the root leaf. *)
  let now = 0 in
  let root_stat =
    {
      Rnode.sk = Fs.Directory;
      links = 2;
      uid = 0;
      gid = 0;
      perms = 0o755;
      size = bs;
      atime = now;
      mtime = now;
      ctime = now;
      target = "";
    }
  in
  let leaf =
    Rnode.Leaf
      [
        { Rnode.key = stat_key root_objid; body = Rnode.Stat_body root_stat };
        {
          Rnode.key = dirent_key root_objid;
          body = Rnode.Dirent_body [ (".", root_objid); ("..", root_objid) ];
        };
      ]
  in
  let buf = Bytes.make bs '\000' in
  Rnode.encode bs leaf buf;
  let* () = wr root_block buf in
  (* Bitmap: blocks up to and including the root leaf are in use. *)
  let bm = Bytes.make bs '\000' in
  for b = 0 to root_block do
    if b / per = 0 then bit_set bm b true
  done;
  let* () = wr bitmap_start bm in
  let rec other_maps m =
    if m >= bitmap_blocks then Ok ()
    else
      let* () = wr (bitmap_start + m) zero in
      other_maps (m + 1)
  in
  let* () = other_maps 1 in
  (* Journal header. *)
  let jh = Bytes.make bs '\000' in
  let w = Codec.writer jh in
  Codec.put_u32 w jheader_magic;
  Codec.put_u32 w 1;
  Codec.put_u32 w (journal_start + 1);
  let* () = wr journal_start jh in
  (* Superblock. *)
  let s =
    {
      root_block;
      free_blocks = num_blocks - root_block - 1;
      next_objid = first_objid;
      num_blocks;
      bitmap_start;
      bitmap_blocks;
      first_data;
    }
  in
  let sb = Bytes.make bs '\000' in
  encode_super s sb;
  let* () = wr super_block sb in
  match dev.Dev.sync () with Ok () -> Ok () | Error _ -> Error Errno.EIO

(* One scratch block serves the header, descriptor and commit reads,
   which are decoded and dropped. The journal copies are read into
   arena buffers, which go back to the arena once replay has written
   them home: every device layer copies the buffer a write hands it. *)
let recover_journal dev klog =
  Obs.span_a ~subsystem:"jrnl" "recover" @@ fun () ->
  let arena = Arena.block dev.Dev.block_size in
  let scratch = Arena.get arena in
  let release copies = List.iter (fun (_, c) -> Arena.put arena c) copies in
  let* seq0, start =
    match dev.Dev.read_into journal_start scratch with
    | Error _ ->
        Klog.error klog "reiserfs" "journal header unreadable";
        Error Errno.EIO
    | Ok () -> (
        match decode_jheader scratch with
        | Some (s, st) -> Ok (s, st)
        | None ->
            Klog.error klog "reiserfs" "journal header bad magic";
            Error Errno.EUCLEAN)
  in
  let txns = ref [] in
  let rec scan pos seq =
    if pos < jend then
      match dev.Dev.read_into pos scratch with
      | Error _ -> Klog.error klog "reiserfs" "journal read failed in recovery"
      | Ok () -> (
          match decode_jdesc scratch with
          | Some (s, tags) when s = seq -> (
              let count = List.length tags in
              let copies = List.map (fun home -> (home, Arena.get arena)) tags in
              let read i (_, c) = dev.Dev.read_into (pos + 1 + i) c in
              if List.exists Result.is_error (List.mapi read copies) then begin
                release copies;
                Klog.error klog "reiserfs" "journal data read failed in recovery"
              end
              else
                match dev.Dev.read_into (pos + 1 + count) scratch with
                | Ok () when decode_jcommit scratch = Some seq ->
                    (* NOTE: no content checking of the journaled data —
                       the paper's replay-corruption exposure (§5.2). *)
                    txns := copies :: !txns;
                    scan (pos + 2 + count) (seq + 1)
                | Ok () | Error _ -> release copies)
          | Some _ | None -> ())
  in
  scan start seq0;
  let txns = List.rev !txns in
  List.iter
    (fun blocks ->
      List.iter
        (fun (home, copy) ->
          if home < dev.Dev.num_blocks then
            match dev.Dev.write home copy with
            | Ok () -> ()
            | Error _ -> Klog.error klog "reiserfs" "replay write failed")
        blocks)
    txns;
  List.iter release txns;
  if txns <> [] then
    Klog.info klog "reiserfs" "journal: replayed %d transactions" (List.length txns);
  let last_seq = seq0 + List.length txns in
  Bytes.fill scratch 0 dev.Dev.block_size '\000';
  let w = Codec.writer scratch in
  Codec.put_u32 w jheader_magic;
  Codec.put_u32 w last_seq;
  Codec.put_u32 w (journal_start + 1);
  (match dev.Dev.write journal_start scratch with
  | Ok () -> ()
  | Error _ -> Klog.error klog "reiserfs" "journal header update failed");
  Arena.put arena scratch;
  ignore (dev.Dev.sync ());
  Ok last_seq

let mount_impl dev =
  let klog = Klog.create ~clock:dev.Dev.now () in
  let* jseq = recover_journal dev klog in
  let* super =
    match dev.Dev.read super_block with
    | Error _ ->
        Klog.error klog "reiserfs" "cannot read superblock";
        Error Errno.EIO
    | Ok buf -> (
        match decode_super buf with
        | Some s -> Ok s
        | None ->
            Klog.error klog "reiserfs" "superblock failed sanity check";
            Error Errno.EUCLEAN)
  in
  Ok
    {
      dev;
      bs = dev.Dev.block_size;
      klog;
      cache = Bcache.create ~capacity:512 dev;
      zeros = Bytes.make dev.Dev.block_size '\000';
      super;
      txn = Hashtbl.create 32;
      txn_order = [];
      pending = Hashtbl.create 32;
      pending_order = [];
      jhead = journal_start + 1;
      jseq;
      fds = Fdtable.create ();
      cwd = root_objid;
      root = root_objid;
      readonly = false;
    }

(* ---- operations ----------------------------------------------------- *)

let stat_of t objid (s : Rnode.stat_body) =
  ignore t;
  {
    Fs.st_ino = objid;
    st_kind = s.Rnode.sk;
    st_size = s.Rnode.size;
    st_links = s.Rnode.links;
    st_mode = s.Rnode.perms;
    st_uid = s.Rnode.uid;
    st_gid = s.Rnode.gid;
    st_atime = float_of_int s.Rnode.atime;
    st_mtime = float_of_int s.Rnode.mtime;
    st_ctime = float_of_int s.Rnode.ctime;
  }

let fresh_objid t =
  let o = t.super.next_objid in
  t.super.next_objid <- o + 1;
  o

let create_node t path sk ~perms ~target =
  let* dino, name = resolve_parent t path in
  let* ds = read_stat t dino in
  if ds.Rnode.sk <> Fs.Directory then Error Errno.ENOTDIR
  else
    let* es = read_dirents t dino in
    if List.mem_assoc name es then Error Errno.EEXIST
    else begin
      let objid = fresh_objid t in
      let now = now_seconds t in
      let stat =
        {
          Rnode.sk;
          links = (if sk = Fs.Directory then 2 else 1);
          uid = 0;
          gid = 0;
          perms;
          size = 0;
          atime = now;
          mtime = now;
          ctime = now;
          target;
        }
      in
      let* () = write_stat t objid stat in
      let* () =
        if sk = Fs.Directory then
          write_dirents t objid [ (".", objid); ("..", dino) ]
        else Ok ()
      in
      let* () = write_dirents t dino (es @ [ (name, objid) ]) in
      let* () =
        if sk = Fs.Directory then
          write_stat t dino
            { ds with Rnode.links = ds.Rnode.links + 1; mtime = now; ctime = now }
        else write_stat t dino { ds with Rnode.mtime = now; ctime = now }
      in
      let* () = write_super t in
      Ok objid
    end

let remove_common t path ~dir =
  let* dino, name = resolve_parent t path in
  let* es = read_dirents t dino in
  match List.assoc_opt name es with
  | None -> Error Errno.ENOENT
  | Some objid -> (
      let* s = read_stat t objid in
      match (dir, s.Rnode.sk) with
      | true, k when k <> Fs.Directory -> Error Errno.ENOTDIR
      | false, Fs.Directory -> Error Errno.EISDIR
      | _ ->
          let* () =
            if not dir then Ok ()
            else
              let* ces = read_dirents t objid in
              if List.for_all (fun (n, _) -> n = "." || n = "..") ces then Ok ()
              else Error Errno.ENOTEMPTY
          in
          let now = now_seconds t in
          let* () = write_dirents t dino (List.remove_assoc name es) in
          let links = s.Rnode.links - if dir then 2 else 1 in
          if (dir && links <= 1) || ((not dir) && links <= 0) then begin
            let* () = free_file_from t objid ~from:0 ~old_size:s.Rnode.size in
            let* () = delete_item t (direct_key objid) in
            let* () = delete_item t (dirent_key objid) in
            let* () = delete_item t (stat_key objid) in
            let* ds = read_stat t dino in
            let* () =
              write_stat t dino
                {
                  ds with
                  Rnode.links = (if dir then ds.Rnode.links - 1 else ds.Rnode.links);
                  mtime = now;
                  ctime = now;
                }
            in
            write_super t
          end
          else
            let* () = write_stat t objid { s with Rnode.links; ctime = now } in
            let* ds = read_stat t dino in
            write_stat t dino { ds with Rnode.mtime = now; ctime = now })

let op_read t fd ~off ~len =
  let* { fd_obj; _ } = Fdtable.find t.fds fd in
  let* s = read_stat t fd_obj in
  let len = max 0 (min len (s.Rnode.size - off)) in
  if len = 0 then Ok Bytes.empty
  else
    let* tail = read_tail t fd_obj in
    match tail with
    | Some tail ->
        (* Small file stored inline. *)
        let out = Bytes.make len '\000' in
        let avail = max 0 (min len (String.length tail - off)) in
        if avail > 0 then Bytes.blit_string tail off out 0 avail;
        Ok out
    | None ->
  begin
    let out = Bytes.create len in
    let rec fill pos =
      if pos >= len then Ok ()
      else begin
        let fblock = (off + pos) / t.bs in
        let boff = (off + pos) mod t.bs in
        let n = min (t.bs - boff) (len - pos) in
        let* data = data_read_block t fd_obj fblock in
        Bytes.blit data boff out pos n;
        fill (pos + n)
      end
    in
    let* () = fill 0 in
    Ok out
  end

(* A tail that outgrew {!Rnode.max_direct_bytes}: push it out to an
   unformatted block and continue with the indirect representation. *)
let convert_tail t objid tail =
  let buf = zero_block t in
  Bytes.blit_string tail 0 buf 0 (String.length tail);
  let* () = data_write_block t objid 0 buf in
  delete_item t (direct_key objid)

let op_write t fd ~off data =
  let* { fd_obj; fd_mode } = Fdtable.find t.fds fd in
  if fd_mode = Fs.Rd then Error Errno.EBADF
  else begin
    let* s = read_stat t fd_obj in
    let len = Bytes.length data in
    let new_size = max s.Rnode.size (off + len) in
    let* tail = read_tail t fd_obj in
    let* () =
      match tail with
      | Some tail when new_size > Rnode.max_direct_bytes ->
          convert_tail t fd_obj tail
      | Some _ | None -> Ok ()
    in
    if
      new_size <= Rnode.max_direct_bytes
      && (tail <> None || s.Rnode.size = 0)
    then begin
      (* Stay (or become) a direct item. *)
      let cur = match tail with Some tl -> tl | None -> "" in
      let b = Bytes.make new_size '\000' in
      Bytes.blit_string cur 0 b 0 (String.length cur);
      Bytes.blit data 0 b off len;
      let* () = write_tail t fd_obj (Bytes.to_string b) in
      let now = now_seconds t in
      let* () =
        write_stat t fd_obj
          { s with Rnode.size = new_size; mtime = now; ctime = now }
      in
      let* () = write_super t in
      Ok len
    end
    else begin
    let rec put pos =
      if pos >= len then Ok ()
      else begin
        let fblock = (off + pos) / t.bs in
        let boff = (off + pos) mod t.bs in
        let n = min (t.bs - boff) (len - pos) in
        let* buf =
          if boff = 0 && n = t.bs then Ok (Bytes.sub data pos n)
          else
            let* old = owned (data_read_block t fd_obj fblock) in
            Bytes.blit data pos old boff n;
            Ok old
        in
        let* () = data_write_block t fd_obj fblock buf in
        put (pos + n)
      end
    in
    let* () = put 0 in
    let now = now_seconds t in
    let* () =
      write_stat t fd_obj
        { s with Rnode.size = new_size; mtime = now; ctime = now }
    in
    let* () = write_super t in
    Ok len
    end
  end

let op_unmount t =
  let* () = commit t in
  checkpoint t;
  ignore (t.dev.Dev.sync ());
  Ok ()

(* ---- classifier & corruption ---------------------------------------- *)

let block_types =
  [
    "stat item"; "dir item"; "bitmap"; "indirect"; "data"; "super";
    "j-header"; "j-desc"; "j-commit"; "j-data"; "root"; "internal";
  ]

let journal_overlay raw bs =
  let overlay = Hashtbl.create 16 in
  let read b = try Some (raw b) with _ -> None in
  ignore bs;
  (match read journal_start with
  | None -> ()
  | Some jh -> (
      match decode_jheader jh with
      | None -> ()
      | Some (seq0, start) ->
          let rec scan pos seq =
            if pos < jend then
              match read pos with
              | None -> ()
              | Some buf -> (
                  match decode_jdesc buf with
                  | Some (s, tags) when s = seq -> (
                      let count = List.length tags in
                      let copies = List.init count (fun i -> read (pos + 1 + i)) in
                      match read (pos + 1 + count) with
                      | Some cbuf when decode_jcommit cbuf = Some seq ->
                          List.iter2
                            (fun home copy ->
                              match copy with
                              | Some c -> Hashtbl.replace overlay home c
                              | None -> ())
                            tags copies;
                          scan (pos + 2 + count) (seq + 1)
                      | Some _ | None -> ())
                  | Some _ | None -> ())
          in
          scan start seq0));
  overlay

let classify raw =
  let bs = try Bytes.length (raw super_block) with _ -> 4096 in
  let sup = (try decode_super (raw super_block) with _ -> None) in
  match sup with
  | None -> fun b -> if b = super_block then "super" else "?"
  | Some s ->
      let overlay = journal_overlay raw bs in
      let raw' b =
        match Hashtbl.find_opt overlay b with Some c -> c | None -> (raw b)
      in
      let labels = Hashtbl.create 64 in
      (* Walk the tree from the root. *)
      let rec walk b ~is_root =
        if b > 0 && b < s.num_blocks && not (Hashtbl.mem labels b) then begin
          match (try Rnode.decode (raw' b) with _ -> None) with
          | None -> ()
          | Some (Rnode.Internal (_, children)) ->
              Hashtbl.replace labels b (if is_root then "root" else "internal");
              List.iter (fun c -> walk c ~is_root:false) children
          | Some (Rnode.Leaf items) ->
              let counts = Hashtbl.create 4 in
              List.iter
                (fun it ->
                  let k =
                    match it.Rnode.key.Rnode.kind with
                    | Rnode.Stat -> "stat item"
                    | Rnode.Dirent -> "dir item"
                    | Rnode.Direct -> "direct item"
                    | Rnode.Indirect -> "indirect"
                  in
                  Hashtbl.replace counts k
                    (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
                items;
              let label =
                if is_root then "root"
                else
                  List.fold_left
                    (fun (bl, bn) k ->
                      let n = Option.value ~default:0 (Hashtbl.find_opt counts k) in
                      if n > bn then (k, n) else (bl, bn))
                    ("stat item", 0)
                    [ "stat item"; "dir item"; "direct item"; "indirect" ]
                  |> fst
              in
              Hashtbl.replace labels b label;
              List.iter
                (fun it ->
                  match it.Rnode.body with
                  | Rnode.Indirect_body ptrs ->
                      Array.iter
                        (fun p ->
                          if p > 0 && p < s.num_blocks then
                            Hashtbl.replace labels p "data")
                        ptrs
                  | Rnode.Stat_body _ | Rnode.Dirent_body _
                  | Rnode.Direct_body _ -> ())
                items
        end
      in
      walk s.root_block ~is_root:true;
      fun b ->
        if b = super_block then "super"
        else if b = journal_start then "j-header"
        else if b > journal_start && b < jend then begin
          match (try Some (raw b) with _ -> None) with
          | None -> "j-data"
          | Some blk ->
              let m = Codec.read_u32 blk 0 in
              if m = jdesc_magic then "j-desc"
              else if m = jcommit_magic then "j-commit"
              else "j-data"
        end
        else if b >= s.bitmap_start && b < s.bitmap_start + s.bitmap_blocks then
          "bitmap"
        else (match Hashtbl.find_opt labels b with Some l -> l | None -> "?")

let corrupt_field ty =
  match ty with
  | "super" -> Some (fun buf -> Codec.write_u32 buf 0 0xBADC0DE)
  | "j-header" | "j-desc" | "j-commit" ->
      Some (fun buf -> Codec.write_u32 buf 0 0xBADC0DE)
  | "root" | "internal" ->
      (* Break the block header: level out of range. The node-header
         sanity check must trip — and ReiserFS panics on it. *)
      Some (fun buf -> Bytes.set_uint16_le buf 0 9)
  | "stat item" | "dir item" | "indirect" ->
      (* Keep the node structurally plausible but point every item at
         the wrong object: lookups silently miss. *)
      Some
        (fun buf ->
          match Rnode.decode buf with
          | Some (Rnode.Leaf items) -> (
              let items' =
                List.map
                  (fun it ->
                    {
                      it with
                      Rnode.key =
                        {
                          it.Rnode.key with
                          Rnode.objid = it.Rnode.key.Rnode.objid lxor 0x5A;
                        };
                    })
                  items
              in
              try Rnode.encode (Bytes.length buf) (Rnode.Leaf items') buf
              with Failure _ -> Bytes.set_uint16_le buf 0 9)
          | Some (Rnode.Internal _) | None -> Bytes.set_uint16_le buf 0 9)
  | "bitmap" -> Some (fun buf -> Bytes.fill buf 0 (Bytes.length buf) '\xFF')
  | _ -> None

(* ---- brand ----------------------------------------------------------- *)

let brand =
  let module M = struct
    let fs_name = "reiserfs"
    let block_types = block_types
    let classifier = classify
    let corrupt_field = corrupt_field

    type t = state

    let mkfs = mkfs_impl
    let mount = mount_impl
    let unmount = op_unmount
    let klog t = t.klog
    let is_readonly t = t.readonly

    let access t path =
      let* _ = resolve t path in
      Ok ()

    let chdir t path =
      let* o = resolve t path in
      let* s = read_stat t o in
      if s.Rnode.sk = Fs.Directory then begin
        t.cwd <- o;
        Ok ()
      end
      else Error Errno.ENOTDIR

    let chroot t path =
      let* o = resolve t path in
      let* s = read_stat t o in
      if s.Rnode.sk = Fs.Directory then begin
        t.root <- o;
        t.cwd <- o;
        Ok ()
      end
      else Error Errno.ENOTDIR

    let stat t path =
      let* o = resolve t path in
      let* s = read_stat t o in
      Ok (stat_of t o s)

    let lstat t path =
      let* o = resolve t ~follow_last:false path in
      let* s = read_stat t o in
      Ok (stat_of t o s)

    let statfs t =
      Ok
        {
          Fs.f_blocks = t.super.num_blocks - t.super.first_data;
          f_bfree = t.super.free_blocks;
          f_files = t.super.next_objid;
          f_ffree = max 0 (65536 - t.super.next_objid);
          f_bsize = t.bs;
        }

    let open_ t path mode =
      let* o = resolve t path in
      let* s = read_stat t o in
      match s.Rnode.sk with
      | Fs.Directory when mode <> Fs.Rd -> Error Errno.EISDIR
      | Fs.Regular | Fs.Directory | Fs.Symlink ->
          Ok (Fdtable.alloc t.fds { fd_obj = o; fd_mode = mode })

    let close t fd = Fdtable.close t.fds fd

    let creat t path =
      let* o = create_node t path Fs.Regular ~perms:0o644 ~target:"" in
      Ok (Fdtable.alloc t.fds { fd_obj = o; fd_mode = Fs.Rdwr })

    let read t fd ~off ~len = op_read t fd ~off ~len
    let write t fd ~off data = op_write t fd ~off data

    let readlink t path =
      let* o = resolve t ~follow_last:false path in
      let* s = read_stat t o in
      if s.Rnode.sk = Fs.Symlink then Ok s.Rnode.target else Error Errno.EINVAL

    let getdirentries t path =
      let* o = resolve t path in
      let* s = read_stat t o in
      if s.Rnode.sk <> Fs.Directory then Error Errno.ENOTDIR
      else read_dirents t o

    let link t existing newpath =
      let* o = resolve t existing in
      let* s = read_stat t o in
      if s.Rnode.sk = Fs.Directory then Error Errno.EISDIR
      else
        let* dino, name = resolve_parent t newpath in
        let* es = read_dirents t dino in
        if List.mem_assoc name es then Error Errno.EEXIST
        else
          let* () = write_dirents t dino (es @ [ (name, o) ]) in
          write_stat t o
            { s with Rnode.links = s.Rnode.links + 1; ctime = now_seconds t }

    let symlink t target linkpath =
      let* _ = create_node t linkpath Fs.Symlink ~perms:0o777 ~target in
      Ok ()

    let mkdir t path =
      let* _ = create_node t path Fs.Directory ~perms:0o755 ~target:"" in
      Ok ()

    let rmdir t path = remove_common t path ~dir:true
    let unlink t path = remove_common t path ~dir:false

    let rename t src dst =
      let* sdino, sname = resolve_parent t src in
      let* ses = read_dirents t sdino in
      match List.assoc_opt sname ses with
      | None -> Error Errno.ENOENT
      | Some o ->
          let* ddino, dname = resolve_parent t dst in
          let* () =
            let* des = read_dirents t ddino in
            match List.assoc_opt dname des with
            | Some old when old <> o -> (
                let* os = read_stat t old in
                match os.Rnode.sk with
                | Fs.Directory -> Error Errno.EISDIR
                | Fs.Regular | Fs.Symlink -> remove_common t dst ~dir:false)
            | Some _ | None -> Ok ()
          in
          let* ses = read_dirents t sdino in
          let* () = write_dirents t sdino (List.remove_assoc sname ses) in
          let* des = read_dirents t ddino in
          let* () = write_dirents t ddino (des @ [ (dname, o) ]) in
          let* s = read_stat t o in
          if s.Rnode.sk = Fs.Directory && sdino <> ddino then begin
            let* ces = read_dirents t o in
            let ces' = List.map (fun (n, e) -> if n = ".." then (n, ddino) else (n, e)) ces in
            let* () = write_dirents t o ces' in
            let* sd = read_stat t sdino in
            let* () = write_stat t sdino { sd with Rnode.links = sd.Rnode.links - 1 } in
            let* dd = read_stat t ddino in
            write_stat t ddino { dd with Rnode.links = dd.Rnode.links + 1 }
          end
          else Ok ()

    let truncate t path size =
      let* o = resolve t path in
      let* s = read_stat t o in
      if s.Rnode.sk = Fs.Directory then Error Errno.EISDIR
      else
        let* tail = read_tail t o in
        match tail with
        | Some tail when size <= Rnode.max_direct_bytes ->
            (* Resize the inline tail. *)
            let b = Bytes.make size '\000' in
            Bytes.blit_string tail 0 b 0 (min size (String.length tail));
            let* () = write_tail t o (Bytes.to_string b) in
            let now = now_seconds t in
            let* () = write_stat t o { s with Rnode.size; mtime = now; ctime = now } in
            write_super t
        | Some tail ->
            (* Growing past the inline limit. *)
            let* () = convert_tail t o tail in
            let now = now_seconds t in
            let* () = write_stat t o { s with Rnode.size; mtime = now; ctime = now } in
            write_super t
        | None ->
      begin
        let keep = (size + t.bs - 1) / t.bs in
        let* () = free_file_from t o ~from:keep ~old_size:s.Rnode.size in
        (* Zero the tail of a partially kept block. *)
        let* () =
          if size >= s.Rnode.size || size mod t.bs = 0 then Ok ()
          else
            let fblock = size / t.bs in
            let* old = owned (data_read_block t o fblock) in
            Bytes.fill old (size mod t.bs) (t.bs - (size mod t.bs)) '\000';
            data_write_block t o fblock old
        in
        let now = now_seconds t in
        let* () =
          write_stat t o { s with Rnode.size; mtime = now; ctime = now }
        in
        write_super t
      end

    let chmod t path perms =
      let* o = resolve t path in
      let* s = read_stat t o in
      write_stat t o { s with Rnode.perms; ctime = now_seconds t }

    let chown t path uid gid =
      let* o = resolve t path in
      let* s = read_stat t o in
      write_stat t o { s with Rnode.uid = uid; gid; ctime = now_seconds t }

    let utimes t path atime mtime =
      let* o = resolve t path in
      let* s = read_stat t o in
      write_stat t o
        { s with Rnode.atime = int_of_float atime; mtime = int_of_float mtime }

    let fsync t fd =
      let* _ = Fdtable.find t.fds fd in
      commit t

    let sync t =
      let* () = commit t in
      checkpoint t;
      Ok ()
  end in
  Fs.Brand (module M)
