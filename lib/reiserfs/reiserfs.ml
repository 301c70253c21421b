open Iron_util
module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fs = Iron_vfs.Fs
module Posix = Iron_vfs.Posix
module Jrnl = Iron_jrnl.Jrnl
module Jrec = Iron_jrnl.Jrec

let ( let* ) = Result.bind

(* ---- layout --------------------------------------------------------- *)

let super_block = 1
let journal_start = 2
let journal_len = 64
let jend = journal_start + journal_len
let super_magic = 0x52654673 (* "ReFs" *)
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

(* ---- journal ---------------------------------------------------------- *)

(* The journal is the shared engine's, in ordered mode: the journal
   header at [journal_start] and the log after it, in reiserfs's own
   magic numbers, with no revoke blocks. Any failed journal, header,
   checkpoint or direct-flush write panics the machine: first, do no
   harm. *)
let journal_format =
  {
    Jrec.jsuper_magic = 0x524A4148 (* "RJAH" *);
    desc_magic = 0x524A4445;
    commit_magic = 0x524A434F;
    revoke_magic = None;
  }

let policy =
  {
    Jrnl.tag = "reiserfs";
    mode = Jrnl.Ordered;
    iron = Jrnl.Panic;
    format = journal_format;
  }

let geo num_blocks =
  { Jrnl.jsb = journal_start; jfirst = journal_start + 1; jend; num_blocks }

(* ---- state ---------------------------------------------------------- *)

type state = {
  dev : Dev.t;
  bs : int;
  klog : Klog.t;
  cache : Bcache.t;
  super : super;
  jrnl : Jrnl.t;
}

(* Every private block — a copy to modify, a fresh zero block — comes
   from the calling domain's arena, and the journal adopts what it is
   staged with, handing the buffer back when the image dies. *)
let arena t = Arena.block t.bs
let zero_block t = Arena.get_zeroed (arena t)

(* ---- block access with journal overlay ------------------------------ *)

(* Reads borrow: they return the journal's staged or committed image or
   the cache's buffer itself, read-only. An image is the engine's
   arena buffer, so the loan ends at the next stage, commit, checkpoint
   or forget, which may hand the buffer to another block: every reader
   decodes or copies what it needs first, and every site that modifies
   what it read takes a private copy through [owned]. Holes read as the
   shared {!Arena.zeros} block. *)
let block_read_raw t b =
  match Jrnl.find t.jrnl b with
  | Some d -> Ok d
  | None -> (
      match Bcache.borrow t.cache b with
      | Ok d -> Ok d
      | Error _ -> Error Errno.EIO)

let owned t r = Result.map (Arena.copy (arena t)) r

(* The journal adopts [data]: the caller hands over a buffer it owns and
   does not write it again. *)
let meta_write t b data =
  Jrnl.stage t.jrnl b data;
  Ok ()

(* ---- allocation ----------------------------------------------------- *)

let alloc_block t =
  let per = t.bs * 8 in
  let rec try_map m =
    if m >= t.super.bitmap_blocks then Error Errno.ENOSPC
    else
      let bb = t.super.bitmap_start + m in
      let* buf = block_read_raw t bb in
      let base = m * per in
      let from = max 0 (t.super.first_data - base) in
      match Bitmap.find_clear ~from buf (min per (t.super.num_blocks - base)) with
      | None -> try_map (m + 1)
      | Some i ->
          let buf = Arena.copy (arena t) buf in
          Bitmap.set buf i true;
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
    if Bitmap.get buf (b mod per) then begin
      (* The freed block's images go with it, or its next owner would
         read the old owner's bytes and the checkpoint would write them
         over the new owner's. *)
      Jrnl.forget t.jrnl b;
      let buf = Arena.copy (arena t) buf in
      Bitmap.set buf (b mod per) false;
      let* () = meta_write t bb buf in
      t.super.free_blocks <- t.super.free_blocks + 1;
      Ok ()
    end
    else Ok ()
  end

let write_super t =
  let buf = zero_block t in
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
  if ptr = 0 then Ok (Arena.zeros t.bs)
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
  ignore (Jrnl.write_data t.jrnl ptr data);
  Ok ()

(* Free data blocks and indirect items from file block [from] upward;
   the item that holds [from] keeps only its pointers below the cut.
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
          let trimmed =
            if base >= from then delete_item t key
            else if from - base < Array.length ptrs then
              set_item t
                {
                  Rnode.key;
                  body = Rnode.Indirect_body (Array.sub ptrs 0 (from - base));
                }
            else Ok ()
          in
          (match trimmed with Ok () -> () | Error _ -> incr errors)
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

(* ---- mkfs / mount --------------------------------------------------- *)

let mkfs_impl dev =
  let bs = dev.Dev.block_size in
  let num_blocks = dev.Dev.num_blocks in
  let per = bs * 8 in
  let bitmap_blocks = (num_blocks + per - 1) / per in
  let bitmap_start = journal_start + journal_len in
  let first_data = bitmap_start + bitmap_blocks in
  let root_block = first_data in
  let wr b data =
    match dev.Dev.write b data with Ok () -> Ok () | Error _ -> Error Errno.EIO
  in
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
  (* Bitmap: blocks up to and including the root leaf are in use. The
     other bitmap blocks already read as zero. *)
  let bm = Bytes.make bs '\000' in
  for b = 0 to root_block do
    if b / per = 0 then Bitmap.set bm b true
  done;
  let* () = wr bitmap_start bm in
  (* Journal header. *)
  let jh = Bytes.create bs in
  Jrec.encode_jsuper journal_format
    { Jrec.sequence = 1; start = journal_start + 1 }
    jh;
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

let mount_impl dev =
  let klog = Klog.create ~clock:dev.Dev.now () in
  let geo = geo dev.Dev.num_blocks in
  let* jseq = Jrnl.recover policy ~geo ~dev ~klog () in
  (* The superblock is decoded and dropped: arena scratch. *)
  let* super =
    Arena.scratch (Arena.block dev.Dev.block_size) @@ fun buf ->
    match dev.Dev.read_into super_block buf with
    | Error _ ->
        Klog.error klog "reiserfs" "cannot read superblock";
        Error Errno.EIO
    | Ok () -> (
        match decode_super buf with
        | Some s -> Ok s
        | None ->
            Klog.error klog "reiserfs" "superblock failed sanity check";
            Error Errno.EUCLEAN)
  in
  let cache = Bcache.create ~capacity:512 dev in
  Ok
    {
      dev;
      bs = dev.Dev.block_size;
      klog;
      cache;
      super;
      jrnl =
        Jrnl.create
          { Jrnl.policy; dev; cache; klog; geo; journaled = (fun _ -> true) }
          ~seq:jseq;
    }

(* ---- file data ----------------------------------------------------- *)

(* A tail that outgrew {!Rnode.max_direct_bytes}: push it out to an
   unformatted block and continue with the indirect representation. *)
let convert_tail t objid tail =
  let buf = zero_block t in
  Bytes.blit_string tail 0 buf 0 (String.length tail);
  let* () = data_write_block t objid 0 buf in
  delete_item t (direct_key objid)

(* A file small enough stays (or becomes) a direct item; one that grows
   past it converts its tail first. *)
let write_data t objid (s : Rnode.stat_body) ~off data =
  let len = Bytes.length data in
  let new_size = max s.Rnode.size (off + len) in
  let* tail = read_tail t objid in
  let* () =
    match tail with
    | Some tail when new_size > Rnode.max_direct_bytes -> convert_tail t objid tail
    | Some _ | None -> Ok ()
  in
  let* () =
    if new_size <= Rnode.max_direct_bytes && (tail <> None || s.Rnode.size = 0)
    then begin
      let cur = match tail with Some tl -> tl | None -> "" in
      let b = Bytes.make new_size '\000' in
      Bytes.blit_string cur 0 b 0 (String.length cur);
      Bytes.blit data 0 b off len;
      write_tail t objid (Bytes.to_string b)
    end
    else
      Posix.each_block ~bs:t.bs ~off ~len (fun fblock boff pos n ->
          let* buf =
            Posix.patch ~bs:t.bs data ~boff ~pos ~n (fun () ->
                owned t (data_read_block t objid fblock))
          in
          data_write_block t objid fblock buf)
  in
  Ok s

let truncate t o (s : Rnode.stat_body) size =
  let* tail = read_tail t o in
  let* () =
    match tail with
    | Some tail when size <= Rnode.max_direct_bytes ->
        (* Resize the inline tail. *)
        let b = Bytes.make size '\000' in
        Bytes.blit_string tail 0 b 0 (min size (String.length tail));
        write_tail t o (Bytes.to_string b)
    | Some tail ->
        (* Growing past the inline limit. *)
        convert_tail t o tail
    | None ->
        let keep = (size + t.bs - 1) / t.bs in
        let* () = free_file_from t o ~from:keep ~old_size:s.Rnode.size in
        (* Zero the tail of a partially kept block. *)
        if size >= s.Rnode.size || size mod t.bs = 0 then Ok ()
        else
          let fblock = size / t.bs in
          let* old = owned t (data_read_block t o fblock) in
          Bytes.fill old (size mod t.bs) (t.bs - (size mod t.bs)) '\000';
          data_write_block t o fblock old
  in
  Ok (s, fun () -> Ok ())

(* ---- classifier & corruption ---------------------------------------- *)

let block_types =
  [
    "stat item"; "dir item"; "bitmap"; "indirect"; "data"; "super";
    "j-header"; "j-desc"; "j-commit"; "j-data"; "root"; "internal";
  ]

let classify raw =
  let sup = (try decode_super (raw super_block) with _ -> None) in
  match sup with
  | None -> fun b -> if b = super_block then "super" else "?"
  | Some s ->
      let overlay =
        Jrnl.committed_overlay journal_format ~geo:(geo s.num_blocks) raw
      in
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
              if m = journal_format.Jrec.desc_magic then "j-desc"
              else if m = journal_format.Jrec.commit_magic then "j-commit"
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

(* ---- store and brand ------------------------------------------------ *)

(* The namespace layer sees an object as its stat item, a directory as
   the dirent item read when it is opened, and a small file's bytes as
   its tail. *)
module Store = struct
  type t = state
  type node = Rnode.stat_body
  type dir = { dobj : int; des : (string * int) list }

  let fs_name = "reiserfs"
  let block_types = block_types
  let classifier = classify
  let corrupt_field = corrupt_field
  let mkfs = mkfs_impl
  let mount = mount_impl

  let sync t =
    let* () = Jrnl.commit t.jrnl in
    Jrnl.checkpoint t.jrnl;
    Ok ()

  (* The mount ends here whatever unmount returns, so the cache's
     buffers go back to the arena last of all. *)
  let unmount t =
    let r =
      let* () = sync t in
      ignore (t.dev.Dev.sync ());
      Ok ()
    in
    Bcache.release t.cache;
    r

  let fsync t = Jrnl.commit t.jrnl

  let statfs t =
    {
      Fs.f_blocks = t.super.num_blocks - t.super.first_data;
      f_bfree = t.super.free_blocks;
      f_files = t.super.next_objid;
      f_ffree = max 0 (65536 - t.super.next_objid);
      f_bsize = t.bs;
    }

  let dev t = t.dev
  let klog t = t.klog
  let is_readonly _ = false
  let root = root_objid
  let read t o = read_stat t o
  let write = write_stat

  let attr (s : node) =
    {
      Posix.kind = Some s.Rnode.sk;
      links = s.links;
      perms = s.perms;
      uid = s.uid;
      gid = s.gid;
      size = s.size;
      atime = s.atime;
      mtime = s.mtime;
      ctime = s.ctime;
      target = s.target;
    }

  (* [sk] serves only an attribute record without a kind, which no
     caller passes. *)
  let of_attr sk (a : Posix.attr) =
    {
      Rnode.sk = Option.value ~default:sk a.kind;
      links = a.links;
      uid = a.uid;
      gid = a.gid;
      perms = a.perms;
      size = a.size;
      atime = a.atime;
      mtime = a.mtime;
      ctime = a.ctime;
      target = a.target;
    }

  let with_attr (s : node) a = of_attr s.Rnode.sk a

  let open_dir t o _ =
    let* des = read_dirents t o in
    Ok { dobj = o; des }

  let entries _ d = Ok d.des
  let add_entry t d name o = write_dirents t d.dobj (d.des @ [ (name, o) ])
  let remove_entry t d name = write_dirents t d.dobj (List.remove_assoc name d.des)

  let reparent t o _ parent =
    let* es = read_dirents t o in
    write_dirents t o (List.map (fun (n, e) -> if n = ".." then (n, parent) else (n, e)) es)

  let alloc t ~parent:_ =
    let o = t.super.next_objid in
    t.super.next_objid <- o + 1;
    Ok o

  let create t o ~parent (a : Posix.attr) =
    let dir = a.kind = Some Fs.Directory in
    let* () = write_stat t o (of_attr Fs.Regular a) in
    if dir then write_dirents t o [ (".", o); ("..", parent) ] else Ok ()

  let destroy t o (s : node) =
    let* () = free_file_from t o ~from:0 ~old_size:s.Rnode.size in
    let* () = delete_item t (direct_key o) in
    let* () = delete_item t (dirent_key o) in
    let* () = delete_item t (stat_key o) in
    Ok (fun () -> Ok ())

  let write_super = write_super
  let inline t o = read_tail t o
  let read_block t o _ fblock = data_read_block t o fblock
  let write_data = write_data
  let truncate = truncate

  let txn _ op = op ()
  let walk_free _ ~child:_ _ = ()
  let open_check _ _ _ = Ok ()
  let zero_links _ _ = Ok ()
  let rename_frees = false
end

let brand = Fs.Brand (module Posix.Make (Store))
