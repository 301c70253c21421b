open Iron_util
module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fs = Iron_vfs.Fs
module Posix = Iron_vfs.Posix
module Jrnl = Iron_jrnl.Jrnl
module Record = Iron_jrnl.Jrnl.Record

let ( let* ) = Result.bind

(* ---- layout constants ----------------------------------------------- *)

let super_primary = 1
let super_secondary = 2 (* adjacent to the primary — the paper's point *)
let aggr_primary = 3
let aggr_secondary = 4
let bmap_desc_block = 5
let imap_cntl_block = 6
let bmap_block = 7
let imap_block = 8
let jsuper_block = 9
let jdata_start = 10
let journal_len = 48 (* j-data blocks *)
let itable_start = jdata_start + journal_len
let itable_blocks = 16
let first_data = itable_start + itable_blocks

let super_magic = 0x4A465331 (* "JFS1" *)
let aggr_magic = 0x4A414747

let root_ino = 2
let inode_size = 128
let direct_ptrs = 4
let xtree_cap = 32
let dir_entry_cap = 100

(* ---- inode codec ----------------------------------------------------- *)

type inode = {
  kind : Fs.kind option; (* None = free *)
  links : int;
  uid : int;
  gid : int;
  perms : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
  direct : int array;
  xtree : int; (* root of the extent tree, 0 if none *)
  target : string;
}

let free_inode_slot =
  {
    kind = None;
    links = 0;
    uid = 0;
    gid = 0;
    perms = 0;
    size = 0;
    atime = 0;
    mtime = 0;
    ctime = 0;
    direct = Array.make direct_ptrs 0;
    xtree = 0;
    target = "";
  }

let encode_inode i buf off =
  let w = Codec.writer ~pos:off buf in
  Codec.put_u8 w (Posix.kind_code i.kind);
  Codec.put_u8 w 0;
  Codec.put_u16 w i.links;
  Codec.put_u16 w i.uid;
  Codec.put_u16 w i.gid;
  Codec.put_u16 w i.perms;
  Codec.put_u16 w 0;
  Codec.put_u32 w i.size;
  Codec.put_u32 w i.atime;
  Codec.put_u32 w i.mtime;
  Codec.put_u32 w i.ctime;
  Array.iter (Codec.put_u32 w) i.direct;
  Codec.put_u32 w i.xtree;
  let target = if String.length i.target > 48 then String.sub i.target 0 48 else i.target in
  Codec.put_u16 w (String.length target);
  Codec.put_string w target;
  let used = Codec.writer_pos w - off in
  Bytes.fill buf (off + used) (inode_size - used) '\000'

let decode_inode buf off =
  let r = Codec.reader ~pos:off buf in
  let kind = Posix.kind_of_code (Codec.get_u8 r) in
  let _ = Codec.get_u8 r in
  let links = Codec.get_u16 r in
  let uid = Codec.get_u16 r in
  let gid = Codec.get_u16 r in
  let perms = Codec.get_u16 r in
  let _ = Codec.get_u16 r in
  let size = Codec.get_u32 r in
  let atime = Codec.get_u32 r in
  let mtime = Codec.get_u32 r in
  let ctime = Codec.get_u32 r in
  let direct = Array.init direct_ptrs (fun _ -> Codec.get_u32 r) in
  let xtree = Codec.get_u32 r in
  let tlen = Codec.get_u16 r in
  let target =
    if tlen <= 48 && tlen <= Codec.remaining r then Codec.get_string r tlen else ""
  in
  { kind; links; uid; gid; perms; size; atime; mtime; ctime; direct; xtree; target }

(* ---- xtree codec --------------------------------------------------- *)

(* An xtree node: level (1 = pointers to data, 2 = pointers to level-1
   nodes) and an entry count that JFS sanity-checks against the cap. *)
let encode_xtree level ptrs buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u16 w (Array.length ptrs);
  Codec.put_u16 w level;
  Array.iter (Codec.put_u32 w) ptrs

let decode_xtree buf =
  try
    let r = Codec.reader buf in
    let n = Codec.get_u16 r in
    let level = Codec.get_u16 r in
    if n > xtree_cap || level < 1 || level > 2 then None
    else Some (level, Array.init n (fun _ -> Codec.get_u32 r))
  with Codec.Decode_error _ -> None

(* ---- super / aggregate / maps --------------------------------------- *)

let encode_super num_blocks buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w super_magic;
  Codec.put_u32 w 1 (* version *);
  Codec.put_u32 w num_blocks;
  Codec.put_u32 w aggr_primary

let decode_super buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> super_magic then None
    else
      let version = Codec.get_u32 r in
      let num_blocks = Codec.get_u32 r in
      let aggr = Codec.get_u32 r in
      if version <> 1 || num_blocks < 8 then None else Some (num_blocks, aggr)
  with Codec.Decode_error _ -> None

let encode_aggr buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w aggr_magic;
  Codec.put_u32 w itable_start;
  Codec.put_u32 w itable_blocks;
  Codec.put_u32 w bmap_desc_block;
  Codec.put_u32 w imap_cntl_block;
  Codec.put_u32 w jsuper_block

let decode_aggr num_blocks buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> aggr_magic then None
    else
      let it = Codec.get_u32 r in
      let itn = Codec.get_u32 r in
      let bd = Codec.get_u32 r in
      let ic = Codec.get_u32 r in
      let js = Codec.get_u32 r in
      if it >= num_blocks || bd >= num_blocks || ic >= num_blocks || js >= num_blocks
      then None
      else Some (it, itn, bd, ic, js)
  with Codec.Decode_error _ -> None

(* The allocation-map descriptor carries its free count twice — the
   "equality check on a field" the paper observed (§5.3). *)
let encode_counted v buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w v;
  Codec.put_u32 w v

let decode_counted buf =
  try
    let r = Codec.reader buf in
    let a = Codec.get_u32 r in
    let b = Codec.get_u32 r in
    if a = b then Some a else None
  with Codec.Decode_error _ -> None

(* ---- record-level journal ------------------------------------------- *)

(* The diff-based record engine lives in the shared journal core
   ({!Iron_jrnl.Jrnl.Record}); jfs supplies its geometry. *)
let jgeo num_blocks =
  {
    Jrnl.jsb = jsuper_block;
    jfirst = jdata_start;
    jend = jdata_start + journal_len;
    num_blocks;
  }

(* ---- state ----------------------------------------------------------- *)

type state = {
  dev : Dev.t;
  bs : int;
  klog : Klog.t;
  cache : Bcache.t;
  num_blocks : int;
  (* journal overlay and record emission live in the shared engine *)
  jrnl : Record.t;
  mutable free_blocks : int;
  mutable free_inodes : int;
}

let zero_block t = Bytes.make t.bs '\000'

(* ---- block access ---------------------------------------------------- *)

(* The generic file-system layer retries every failed metadata read a
   single time (§5.3). Reads borrow: they return the journal overlay's
   page or the cache's buffer itself, read-only. An overlay page stays
   valid for as long as its reader holds it, and a cache buffer until
   the mount ends: [Record.write] adopts the page [meta_write] hands it,
   which a later write replaces and a checkpoint drops, and nothing
   writes an overlay page in place or hands it to the arena. Every site
   that modifies what it read takes a private copy through [owned]. Holes
   read as the shared {!Arena.zeros} block. *)
let meta_read t b =
  match Record.find t.jrnl b with
  | Some d -> Ok d
  | None -> (
      match Bcache.borrow t.cache b with
      | Ok d -> Ok d
      | Error _ -> (
          Klog.warn t.klog "jfs" "retrying metadata read of block %d" b;
          match Bcache.borrow t.cache b with
          | Ok d -> Ok d
          | Error _ -> Error Errno.EIO))

let owned r = Result.map Bytes.copy r

(* Diff-based record emission, commit and checkpoint are the engine's;
   jfs keeps only the VFS-facing result types. The overlay adopts
   [data]: every caller passes a fresh page (a copy, or a block it
   encoded) and never touches it again. *)
let meta_write t b data =
  Record.write t.jrnl b data;
  Ok ()

let checkpoint t = Record.checkpoint t.jrnl

let commit t =
  Record.commit t.jrnl;
  Ok ()

(* ---- allocation ------------------------------------------------------ *)

(* A failed read of the block or inode allocation maps crashes the
   system (§5.3). *)
let read_map t b what =
  match meta_read t b with
  | Ok d -> Ok d
  | Error _ -> Klog.panic t.klog "jfs" "read of %s failed; halting" what

let alloc_block t =
  let* buf = read_map t bmap_block "block allocation map" in
  match Bitmap.find_clear ~from:first_data buf (min (t.bs * 8) t.num_blocks) with
  | None -> Error Errno.ENOSPC
  | Some b ->
      let buf = Bytes.copy buf in
      Bitmap.set buf b true;
      let* () = meta_write t bmap_block buf in
      t.free_blocks <- t.free_blocks - 1;
      let cnt = zero_block t in
      encode_counted t.free_blocks cnt;
      let* () = meta_write t bmap_desc_block cnt in
      Ok b

(* A freed block's overlay page goes with it, or its next owner would
   read the old page and the checkpoint would write it over the new
   owner's data. *)
let free_block t b =
  if b < first_data || b >= t.num_blocks then Ok ()
  else begin
    let* buf = read_map t bmap_block "block allocation map" in
    if Bitmap.get buf b then begin
      Record.forget t.jrnl b;
      let buf = Bytes.copy buf in
      Bitmap.set buf b false;
      let* () = meta_write t bmap_block buf in
      t.free_blocks <- t.free_blocks + 1;
      let cnt = zero_block t in
      encode_counted t.free_blocks cnt;
      meta_write t bmap_desc_block cnt
    end
    else Ok ()
  end

let total_inodes = itable_blocks * (4096 / inode_size)

let alloc_inode t =
  let* buf = read_map t imap_block "inode allocation map" in
  match Bitmap.find_clear buf total_inodes with
  | None -> Error Errno.ENOSPC
  | Some i ->
      let buf = Bytes.copy buf in
      Bitmap.set buf i true;
      let* () = meta_write t imap_block buf in
      t.free_inodes <- t.free_inodes - 1;
      let cnt = zero_block t in
      encode_counted t.free_inodes cnt;
      let* () = meta_write t imap_cntl_block cnt in
      Ok (i + 1)

let free_inode t ino =
  let* buf = owned (read_map t imap_block "inode allocation map") in
  Bitmap.set buf (ino - 1) false;
  let* () = meta_write t imap_block buf in
  t.free_inodes <- t.free_inodes + 1;
  let cnt = zero_block t in
  encode_counted t.free_inodes cnt;
  meta_write t imap_cntl_block cnt

(* ---- inode access ---------------------------------------------------- *)

let inode_location ino =
  let per = 4096 / inode_size in
  (itable_start + ((ino - 1) / per), (ino - 1) mod per * inode_size)

let read_inode t ino =
  if ino < 1 || ino > total_inodes then Error Errno.EIO
  else
    let blk, off = inode_location ino in
    let* buf = meta_read t blk in
    Ok (decode_inode buf off)

let write_inode t ino i =
  let blk, off = inode_location ino in
  let* buf = owned (meta_read t blk) in
  encode_inode i buf off;
  meta_write t blk buf

(* ---- file block mapping (direct + xtree) ----------------------------- *)

(* Read an xtree node; a failed sanity check silently yields an empty
   node, which is how the paper's "blank page returned to the user"
   bug manifests (§5.3). *)
let read_xtree t b =
  let* buf = meta_read t b in
  match decode_xtree buf with
  | Some node -> Ok node
  | None -> Ok (1, [||])

let bmap t inode fblock =
  if fblock < direct_ptrs then Ok inode.direct.(fblock)
  else
    let fb = fblock - direct_ptrs in
    if inode.xtree = 0 then Ok 0
    else
      let* level, ptrs = read_xtree t inode.xtree in
      if level = 1 then Ok (if fb < Array.length ptrs then ptrs.(fb) else 0)
      else begin
        let child_idx = fb / xtree_cap in
        if child_idx >= Array.length ptrs || ptrs.(child_idx) = 0 then Ok 0
        else
          let* _, leaf = read_xtree t ptrs.(child_idx) in
          let i = fb mod xtree_cap in
          Ok (if i < Array.length leaf then leaf.(i) else 0)
      end

let write_xtree t b level ptrs =
  let buf = zero_block t in
  encode_xtree level ptrs buf;
  meta_write t b buf

(* Ensure fblock maps to a block, allocating data blocks and growing
   the xtree (level 1 -> 2) as needed. *)
let bmap_alloc t ino inode fblock =
  if fblock < direct_ptrs then begin
    if inode.direct.(fblock) <> 0 then Ok (inode.direct.(fblock), inode)
    else
      let* b = alloc_block t in
      let direct = Array.copy inode.direct in
      direct.(fblock) <- b;
      let inode = { inode with direct } in
      let* () = write_inode t ino inode in
      Ok (b, inode)
  end
  else begin
    let fb = fblock - direct_ptrs in
    let* inode =
      if inode.xtree <> 0 then Ok inode
      else
        let* xb = alloc_block t in
        let* () = write_xtree t xb 1 [||] in
        let inode = { inode with xtree = xb } in
        let* () = write_inode t ino inode in
        Ok inode
    in
    let* level, ptrs = read_xtree t inode.xtree in
    if level = 1 && fb < xtree_cap then begin
      let ptrs =
        if fb < Array.length ptrs then Array.copy ptrs
        else begin
          let a = Array.make (fb + 1) 0 in
          Array.blit ptrs 0 a 0 (Array.length ptrs);
          a
        end
      in
      if ptrs.(fb) <> 0 then Ok (ptrs.(fb), inode)
      else
        let* b = alloc_block t in
        ptrs.(fb) <- b;
        let* () = write_xtree t inode.xtree 1 ptrs in
        Ok (b, inode)
    end
    else begin
      (* Need (or already have) a two-level tree. *)
      let* level, ptrs =
        if level = 2 then Ok (level, ptrs)
        else begin
          (* Push the existing leaf down a level. *)
          let* nb = alloc_block t in
          let* () = write_xtree t nb 1 ptrs in
          let* () = write_xtree t inode.xtree 2 [| nb |] in
          Ok (2, [| nb |])
        end
      in
      ignore level;
      let ci = fb / xtree_cap in
      if ci >= xtree_cap then Error Errno.EFBIG
      else begin
        let ptrs =
          if ci < Array.length ptrs then Array.copy ptrs
          else begin
            let a = Array.make (ci + 1) 0 in
            Array.blit ptrs 0 a 0 (Array.length ptrs);
            a
          end
        in
        let* child =
          if ptrs.(ci) <> 0 then Ok ptrs.(ci)
          else
            let* nb = alloc_block t in
            let* () = write_xtree t nb 1 [||] in
            ptrs.(ci) <- nb;
            let* () = write_xtree t inode.xtree 2 ptrs in
            Ok nb
        in
        let* _, leaf = read_xtree t child in
        let i = fb mod xtree_cap in
        let leaf =
          if i < Array.length leaf then Array.copy leaf
          else begin
            let a = Array.make (i + 1) 0 in
            Array.blit leaf 0 a 0 (Array.length leaf);
            a
          end
        in
        if leaf.(i) <> 0 then Ok (leaf.(i), inode)
        else
          let* b = alloc_block t in
          leaf.(i) <- b;
          let* () = write_xtree t child 1 leaf in
          Ok (b, inode)
      end
    end
  end

let data_read_block t inode fblock =
  let* b = bmap t inode fblock in
  if b = 0 then Ok (Arena.zeros t.bs)
  else if b >= t.num_blocks then begin
    Klog.error t.klog "jfs" "impossible block %d" b;
    Error Errno.EIO
  end
  else meta_read t b (* data reads also go through the generic retry *)

let data_write_block t b data =
  (* Ordered data goes straight home; the error code is dropped. *)
  (match Bcache.write t.cache b data with Ok () -> () | Error _ -> ());
  Ok ()

(* Free file blocks from [from]. A kept xtree node is rewritten without
   the pointers past the cut, and a level-2 root drops every child that
   lies wholly past it. The delete-path bug: a failed xtree read is
   ignored completely — no retry result check, no error, the pointed-to
   blocks simply leak and the maps go stale (§5.3). *)
let free_file_from t inode ~from =
  let free_data b = if b <> 0 then ignore (free_block t b) in
  (* [x] is the cut as an index into the xtree's leaf entries. *)
  let x = from - direct_ptrs in
  let keep b level ptrs n =
    if n > 0 && n < Array.length ptrs then
      ignore (write_xtree t b level (Array.sub ptrs 0 n))
  in
  Array.iteri (fun i b -> if i >= from && b <> 0 then free_data b) inode.direct;
  (if inode.xtree <> 0 then
     match meta_read t inode.xtree with
     | Error _ -> () (* the bug: silently ignored *)
     | Ok buf -> (
         match decode_xtree buf with
         | None -> ()
         | Some (1, ptrs) ->
             Array.iteri (fun i b -> if i >= x then free_data b) ptrs;
             keep inode.xtree 1 ptrs x;
             if x <= 0 then free_data inode.xtree
         | Some (_, children) ->
             Array.iteri
               (fun ci child ->
                 let lo = ci * xtree_cap in
                 if child <> 0 && lo + xtree_cap > x then
                   match meta_read t child with
                   | Error _ -> ()
                   | Ok cb -> (
                       match decode_xtree cb with
                       | Some (_, leaf) ->
                           Array.iteri
                             (fun i b -> if lo + i >= x then free_data b)
                             leaf;
                           keep child 1 leaf (x - lo);
                           if lo >= x then free_data child
                       | None -> ()))
               children;
             keep inode.xtree 2 children ((x + xtree_cap - 1) / xtree_cap);
             if x <= 0 then free_data inode.xtree));
  let direct = Array.copy inode.direct in
  Array.iteri (fun i _ -> if i >= from then direct.(i) <- 0) direct;
  { inode with direct; xtree = (if from <= direct_ptrs then 0 else inode.xtree) }

(* ---- directories ----------------------------------------------------- *)

let dir_blocks t inode =
  let n = (inode.size + t.bs - 1) / t.bs in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      let* b = bmap t inode i in
      if b = 0 || b >= t.num_blocks then go (i + 1) acc
      else
        let* buf = meta_read t b in
        match Posix.decode_entries ~cap:dir_entry_cap buf with
        | Some entries -> go (i + 1) ((i, b, entries) :: acc)
        | None ->
            (* Directory sanity check: entry count out of range. *)
            Klog.error t.klog "jfs" "directory block %d fails sanity check" b;
            Error Errno.EUCLEAN
  in
  go 0 []

let dir_entries t inode =
  let* blocks = dir_blocks t inode in
  Ok (List.concat_map (fun (_, _, es) -> es) blocks)

let dir_add t dino dinode name ino =
  let* blocks = dir_blocks t dinode in
  let rec place = function
    | [] ->
        let n = (dinode.size + t.bs - 1) / t.bs in
        let* b, dinode = bmap_alloc t dino dinode n in
        let buf = Bytes.make t.bs '\000' in
        Posix.encode_entries [ (name, ino) ] buf;
        let* () = meta_write t b buf in
        write_inode t dino { dinode with size = (n + 1) * t.bs }
    | (_, b, entries) :: rest ->
        if List.length entries >= dir_entry_cap then place rest
        else begin
          let buf = Bytes.make t.bs '\000' in
          Posix.encode_entries (entries @ [ (name, ino) ]) buf;
          meta_write t b buf
        end
  in
  place blocks

let dir_remove t dinode name =
  let* blocks = dir_blocks t dinode in
  let rec go = function
    | [] -> Error Errno.ENOENT
    | (_, b, entries) :: rest ->
        if List.mem_assoc name entries then begin
          let buf = Bytes.make t.bs '\000' in
          Posix.encode_entries (List.remove_assoc name entries) buf;
          meta_write t b buf
        end
        else go rest
  in
  go blocks

(* ---- mkfs / mount ---------------------------------------------------- *)

let mkfs_impl dev =
  let bs = dev.Dev.block_size in
  let num_blocks = dev.Dev.num_blocks in
  let wr b data =
    match dev.Dev.write b data with Ok () -> Ok () | Error _ -> Error Errno.EIO
  in
  let sb = Bytes.make bs '\000' in
  encode_super num_blocks sb;
  let* () = wr super_primary sb in
  let* () = wr super_secondary sb in
  let ab = Bytes.make bs '\000' in
  encode_aggr ab;
  let* () = wr aggr_primary ab in
  let* () = wr aggr_secondary ab in
  (* Root directory: inode 2 with one dir block. *)
  let root_block = first_data in
  let dirbuf = Bytes.make bs '\000' in
  Posix.encode_entries [ (".", root_ino); ("..", root_ino) ] dirbuf;
  let* () = wr root_block dirbuf in
  let it = Bytes.make bs '\000' in
  let root =
    {
      free_inode_slot with
      kind = Some Fs.Directory;
      links = 2;
      perms = 0o755;
      size = bs;
      direct = (let a = Array.make direct_ptrs 0 in a.(0) <- root_block; a);
    }
  in
  encode_inode root it ((root_ino - 1) * inode_size);
  let* () = wr itable_start it in
  (* Maps: everything before first_data plus the root block is in use. *)
  let bm = Bytes.make bs '\000' in
  for b = 0 to root_block do
    Bitmap.set bm b true
  done;
  let* () = wr bmap_block bm in
  let im = Bytes.make bs '\000' in
  Bitmap.set im 0 true;
  Bitmap.set im 1 true;
  let* () = wr imap_block im in
  let free_blocks = num_blocks - root_block - 1 in
  let cnt = Bytes.make bs '\000' in
  encode_counted free_blocks cnt;
  let* () = wr bmap_desc_block cnt in
  let cnt2 = Bytes.make bs '\000' in
  encode_counted (total_inodes - 2) cnt2;
  let* () = wr imap_cntl_block cnt2 in
  let js = Bytes.make bs '\000' in
  Record.encode_jsuper 1 jdata_start js;
  let* () = wr jsuper_block js in
  match dev.Dev.sync () with Ok () -> Ok () | Error _ -> Error Errno.EIO

let recover_journal dev klog =
  Record.recover ~tag:"jfs" ~geo:(jgeo dev.Dev.num_blocks) ~dev ~klog ()

let mount_impl dev =
  (* Every mount-time read here is decode-then-discard, so one arena
     scratch block covers them all and goes back when the mount
     returns. *)
  Arena.scratch (Arena.block dev.Dev.block_size) @@ fun scratch ->
  let klog = Klog.create ~clock:dev.Dev.now () in
  (* Primary superblock; the alternate is used after a failed read but
     NOT after a corrupt one — the paper's inconsistency. *)
  let* num_blocks, _aggr =
    match dev.Dev.read_into super_primary scratch with
    | Error _ -> (
        Klog.warn klog "jfs" "primary superblock unreadable; trying alternate";
        match dev.Dev.read_into super_secondary scratch with
        | Error _ ->
            Klog.error klog "jfs" "alternate superblock unreadable too";
            Error Errno.EIO
        | Ok () -> (
            match decode_super scratch with
            | Some v -> Ok v
            | None ->
                Klog.error klog "jfs" "alternate superblock invalid";
                Error Errno.EUCLEAN))
    | Ok () -> (
        match decode_super scratch with
        | Some v -> Ok v
        | None ->
            (* Corrupt primary: mount fails; the copy is not consulted. *)
            Klog.error klog "jfs" "superblock failed sanity check";
            Error Errno.EUCLEAN)
  in
  let* () =
    (* Aggregate inode; its secondary copy is never used (§5.3). *)
    match dev.Dev.read_into aggr_primary scratch with
    | Error _ ->
        Klog.error klog "jfs" "aggregate inode unreadable";
        Error Errno.EIO
    | Ok () -> (
        match decode_aggr num_blocks scratch with
        | Some _ -> Ok ()
        | None ->
            Klog.error klog "jfs" "aggregate inode failed sanity check";
            Error Errno.EUCLEAN)
  in
  let* txid = recover_journal dev klog in
  (* Map descriptors: the equality check. *)
  let* free_blocks =
    match dev.Dev.read_into bmap_desc_block scratch with
    | Error _ ->
        Klog.error klog "jfs" "block map descriptor unreadable";
        Error Errno.EIO
    | Ok () -> (
        match decode_counted scratch with
        | Some v -> Ok v
        | None ->
            Klog.error klog "jfs" "block map descriptor equality check failed";
            Error Errno.EUCLEAN)
  in
  let* free_inodes =
    match dev.Dev.read_into imap_cntl_block scratch with
    | Error _ ->
        Klog.error klog "jfs" "inode map control unreadable";
        Error Errno.EIO
    | Ok () -> (
        match decode_counted scratch with
        | Some v -> Ok v
        | None ->
            Klog.error klog "jfs" "inode map control equality check failed";
            Error Errno.EUCLEAN)
  in
  let cache = Bcache.create ~capacity:512 dev in
  Ok
    {
      dev;
      bs = dev.Dev.block_size;
      klog;
      cache;
      num_blocks;
      jrnl =
        Record.create ~tag:"jfs" ~dev ~cache ~klog
          ~geo:(jgeo dev.Dev.num_blocks) ~txid;
      free_blocks;
      free_inodes;
    }

(* ---- classifier ------------------------------------------------------ *)

let block_types =
  [
    "inode"; "dir"; "bmap"; "imap"; "internal"; "data"; "super"; "j-super";
    "j-data"; "aggr-inode"; "bmap-desc"; "imap-cntl";
  ]

let classify raw =
  let read b = try Some (raw b) with _ -> None in
  let num_blocks =
    match read super_primary with
    | Some buf -> ( match decode_super buf with Some (n, _) -> n | None -> 0)
    | None -> 0
  in
  if num_blocks = 0 then fun b -> if b = super_primary then "super" else "?"
  else begin
    (* Apply the committed journal records so freshly created structures
       are visible to the walk. *)
    let min_tx, start =
      match read jsuper_block with
      | Some buf -> (
          match Record.decode_jsuper buf with
          | Some (tx, s) -> (tx, s)
          | None -> (0, jdata_start))
      | None -> (0, jdata_start)
    in
    let records = Record.scan_committed ~geo:(jgeo num_blocks) read ~min_tx start in
    let pages = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let page =
          match Hashtbl.find_opt pages r.Record.r_block with
          | Some p -> p
          | None -> (
              match read r.Record.r_block with
              | Some p ->
                  let p = Bytes.copy p in
                  Hashtbl.replace pages r.Record.r_block p;
                  p
              | None ->
                  let p = Bytes.make 4096 '\000' in
                  Hashtbl.replace pages r.Record.r_block p;
                  p)
        in
        if r.Record.r_off + String.length r.Record.r_data <= Bytes.length page
        then
          Bytes.blit_string r.Record.r_data 0 page r.Record.r_off
            (String.length r.Record.r_data))
      records;
    let raw' b =
      match Hashtbl.find_opt pages b with
      | Some p -> Some p
      | None -> read b
    in
    let labels = Hashtbl.create 64 in
    let mark b l = if b >= first_data && b < num_blocks then Hashtbl.replace labels b l in
    let xtree_of b = Option.bind (raw' b) decode_xtree in
    let per = 4096 / inode_size in
    (* Consecutive inodes share an itable block: read each block once. *)
    let last_blk = ref (-1) in
    let last_buf = ref None in
    let itable_buf blk =
      if blk = !last_blk then !last_buf
      else begin
        let r = raw' blk in
        last_blk := blk;
        last_buf := r;
        r
      end
    in
    for ino = 1 to itable_blocks * per do
      let blk, off = inode_location ino in
      match itable_buf blk with
      | None -> ()
      | Some buf when Bytes.get buf off = '\000' -> () (* free: skip decode *)
      | Some buf -> (
          let i = decode_inode buf off in
          match i.kind with
          | None | Some Fs.Symlink -> ()
          | Some k ->
              let leaf_label = if k = Fs.Directory then "dir" else "data" in
              Array.iter (fun p -> if p > 0 then mark p leaf_label) i.direct;
              if i.xtree > 0 then begin
                mark i.xtree "internal";
                match xtree_of i.xtree with
                | Some (1, ptrs) ->
                    Array.iter (fun p -> if p > 0 then mark p leaf_label) ptrs
                | Some (_, children) ->
                    Array.iter
                      (fun c ->
                        if c > 0 then begin
                          mark c "internal";
                          match xtree_of c with
                          | Some (_, leaf) ->
                              Array.iter
                                (fun p -> if p > 0 then mark p leaf_label)
                                leaf
                          | None -> ()
                        end)
                      children
                | None -> ()
              end)
    done;
    fun b ->
      if b = super_primary then "super"
      else if b = super_secondary then "alt-super"
      else if b = aggr_primary then "aggr-inode"
      else if b = aggr_secondary then "aggr-2nd"
      else if b = bmap_desc_block then "bmap-desc"
      else if b = imap_cntl_block then "imap-cntl"
      else if b = bmap_block then "bmap"
      else if b = imap_block then "imap"
      else if b = jsuper_block then "j-super"
      else if b >= jdata_start && b < jdata_start + journal_len then "j-data"
      else if b >= itable_start && b < itable_start + itable_blocks then "inode"
      else match Hashtbl.find_opt labels b with Some l -> l | None -> "?"
  end

let corrupt_field ty =
  match ty with
  | "super" | "j-super" | "aggr-inode" ->
      Some (fun buf -> Codec.write_u32 buf 0 0xDEAD)
  | "bmap-desc" | "imap-cntl" ->
      (* Break the equality check: bump one of the twin counters. *)
      Some (fun buf -> Codec.write_u32 buf 0 (Codec.read_u32 buf 0 + 7))
  | "internal" ->
      (* Entry count beyond the cap: the sanity check trips and JFS
         hands back a blank page. *)
      Some (fun buf -> Bytes.set_uint16_le buf 0 999)
  | "dir" -> Some (fun buf -> Bytes.set_uint16_le buf 0 9999)
  | "inode" ->
      Some
        (fun buf ->
          let per = Bytes.length buf / inode_size in
          for i = 0 to per - 1 do
            let off = i * inode_size in
            if Char.code (Bytes.get buf off) <> 0 then
              (* Garbage direct pointers: plausible inode, wrong blocks. *)
              Codec.write_u32 buf (off + 28) 0xFFFFF0
          done)
  | "bmap" | "imap" -> Some (fun buf -> Bytes.fill buf 0 (Bytes.length buf) '\xFF')
  | _ -> None

(* ---- store and brand ------------------------------------------------ *)

module Store = struct
  type t = state
  type node = inode
  type dir = int * inode

  let fs_name = "jfs"
  let block_types = block_types
  let classifier = classify
  let corrupt_field = corrupt_field
  let mkfs = mkfs_impl
  let mount = mount_impl

  let sync t =
    let* () = commit t in
    checkpoint t;
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

  let fsync = commit

  let statfs t =
    {
      Fs.f_blocks = t.num_blocks - first_data;
      f_bfree = t.free_blocks;
      f_files = total_inodes;
      f_ffree = t.free_inodes;
      f_bsize = t.bs;
    }

  let dev t = t.dev
  let klog t = t.klog
  let is_readonly _ = false
  let root = root_ino
  let read = read_inode
  let write = write_inode

  let attr (i : inode) =
    {
      Posix.kind = i.kind;
      links = i.links;
      perms = i.perms;
      uid = i.uid;
      gid = i.gid;
      size = i.size;
      atime = i.atime;
      mtime = i.mtime;
      ctime = i.ctime;
      target = i.target;
    }

  let with_attr (i : inode) (a : Posix.attr) =
    {
      i with
      kind = a.kind;
      links = a.links;
      perms = a.perms;
      uid = a.uid;
      gid = a.gid;
      size = a.size;
      atime = a.atime;
      mtime = a.mtime;
      ctime = a.ctime;
      target = a.target;
    }

  let open_dir t ino = function
    | Some i -> Ok (ino, i)
    | None ->
        let* i = read_inode t ino in
        Ok (ino, i)

  let entries t (_, i) = dir_entries t i
  let add_entry t (dino, dinode) name ino = dir_add t dino dinode name ino
  let remove_entry t (_, dinode) name = dir_remove t dinode name

  (* [".."] lives in the directory's first block. *)
  let reparent t _ i parent =
    let* blocks = dir_blocks t i in
    match blocks with
    | (_, b, entries) :: _ ->
        let buf = Bytes.make t.bs '\000' in
        Posix.encode_entries
          (List.map (fun (n, e) -> if n = ".." then (n, parent) else (n, e)) entries)
          buf;
        meta_write t b buf
    | [] -> Ok ()

  let alloc t ~parent:_ = alloc_inode t

  let create t ino ~parent (a : Posix.attr) =
    let node = with_attr free_inode_slot a in
    let* node =
      if a.kind <> Some Fs.Directory then Ok node
      else begin
        let* b, node = bmap_alloc t ino node 0 in
        let buf = Bytes.make t.bs '\000' in
        Posix.encode_entries [ (".", ino); ("..", parent) ] buf;
        let* () = meta_write t b buf in
        Ok { node with size = t.bs }
      end
    in
    write_inode t ino node

  let destroy t ino i =
    let i' = free_file_from t i ~from:0 in
    let* () = write_inode t ino { i' with kind = None; links = 0 } in
    let* () = free_inode t ino in
    Ok (fun () -> Ok ())

  let write_super _ = Ok ()
  let inline _ _ = Ok None
  let read_block t _ i fblock = data_read_block t i fblock

  let write_data t ino i0 ~off data =
    let inode = ref i0 in
    let* () =
      Posix.each_block ~bs:t.bs ~off ~len:(Bytes.length data) (fun fblock boff pos n ->
          let* existing = bmap t !inode fblock in
          let* b, inode' = bmap_alloc t ino !inode fblock in
          inode := inode';
          let* buf =
            Posix.patch ~bs:t.bs data ~boff ~pos ~n (fun () ->
                let* old = data_read_block t !inode fblock in
                (* A freshly mapped block still holds whatever its last
                   owner wrote; splicing into that leaks freed data. The
                   read stays (the request stream is part of the failure
                   fingerprint) but the baseline must be zeros. *)
                Ok (if existing = 0 then zero_block t else Bytes.copy old))
          in
          data_write_block t b buf)
    in
    Ok !inode

  let truncate t _ i size =
    let keep = (size + t.bs - 1) / t.bs in
    let i' = free_file_from t i ~from:keep in
    (* Zero the tail of a partially kept block. *)
    let* () =
      if size >= i.size || size mod t.bs = 0 then Ok ()
      else
        let* b = bmap t i' (size / t.bs) in
        if b = 0 then Ok ()
        else
          let* old = owned (data_read_block t i' (size / t.bs)) in
          Bytes.fill old (size mod t.bs) (t.bs - (size mod t.bs)) '\000';
          data_write_block t b old
    in
    Ok (i', fun () -> Ok ())

  let txn _ op = op ()
  let walk_free _ ~child:_ _ = ()
  let open_check _ _ _ = Ok ()
  let zero_links _ _ = Ok ()
  let rename_frees = false
end

let brand = Fs.Brand (module Posix.Make (Store))
