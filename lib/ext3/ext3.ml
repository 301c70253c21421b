open Iron_util
module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fs = Iron_vfs.Fs
module VPath = Iron_vfs.Path
module Obs = Iron_obs.Obs
module Jrnl = Iron_jrnl.Jrnl
module Jrec = Iron_jrnl.Jrec
module Kind = Iron_jrnl.Kind

let ( let* ) = Result.bind

(* Block classes drive checksum coverage and abort decisions. They are
   what the file system knows about its own I/O; the external classifier
   in {!Classifier} rediscovers the same information gray-box. *)
type cls =
  | Super
  | Gdesc
  | BBitmap
  | IBitmap
  | Itable
  | Dir
  | Indirect
  | Data
  | Cksum
[@@warning "-37"]
(* Some classes appear only in patterns today; the full vocabulary is
   kept so call sites state what they touch. *)

type fdesc = { fd_ino : int; fd_mode : Fs.open_mode }

type state = {
  profile : Profile.t;
  dev : Dev.t;
  lay : Layout.t;
  klog : Klog.t;
  cache : Bcache.t;
  zeros : bytes; (* read-only, like every borrowed buffer: holes read as it *)
  mutable free_blocks : int;
  mutable free_inodes : int;
  (* group descriptor table, kept in memory as on real systems *)
  gd_bitmap : int array;
  gd_ibitmap : int array;
  gd_itable : int array;
  mutable readonly : bool;
  mutable aborted : bool;
  (* journaling: transaction state lives in the shared typed-journal
     core; the profile's commit policy picked the engine's mode *)
  jrnl : Jrnl.t;
  (* process state *)
  fds : (int, fdesc) Hashtbl.t;
  mutable next_fd : int;
  mutable cwd : int;
  mutable root : int;
  (* "Checksums are very small and can be cached for read
     verification" (§6.1): block -> raw SHA-1, loaded lazily. *)
  cksums : (int, string) Hashtbl.t;
  mutable rlog_head : int;
      (* next free slot in the replica log; wraps (it is advisory —
         durability comes from the journal + checkpointed replicas) *)
}

let now_seconds t = int_of_float (t.dev.Dev.now () /. 1000.)
let bsize t = t.lay.Layout.block_size
let zero_block t = Bytes.make (bsize t) '\000'

let is_meta_cls = function
  | Gdesc | BBitmap | IBitmap | Itable | Dir | Indirect -> true
  | Super | Data | Cksum -> false

let checksummed t cls =
  (t.profile.Profile.meta_checksum && is_meta_cls cls)
  || (t.profile.Profile.data_checksum && cls = Data)

let abort_journal t why =
  if not t.aborted then begin
    t.aborted <- true;
    t.readonly <- true;
    Klog.error t.klog "ext3" "journal aborted (%s); remounting read-only" why
  end

(* ------------------------------------------------------------------ *)
(* Typed layout and commit policy handed to the journal core           *)
(* ------------------------------------------------------------------ *)

(* Region-level block classification for the journal core. Directory
   and indirect blocks live in the data region and are classified Data
   here; the call sites carry the finer [cls] distinction. *)
let kind_of_block lay b =
  if b = 0 then Kind.Superblock
  else if b = 1 then Kind.Gdesc
  else if b = lay.Layout.journal_start then Kind.Jsb
  else if
    b > lay.Layout.journal_start
    && b < lay.Layout.journal_start + lay.Layout.journal_len
  then Kind.Jdata
  else if
    b >= lay.Layout.replica_start
    && b < lay.Layout.replica_start + lay.Layout.replica_blocks
  then Kind.Replica
  else if
    b >= lay.Layout.rmap_start && b < lay.Layout.rmap_start + lay.Layout.rmap_blocks
  then Kind.Rmap
  else if
    b >= lay.Layout.rlog_start && b < lay.Layout.rlog_start + lay.Layout.rlog_blocks
  then Kind.Rlog
  else if
    b >= lay.Layout.cksum_start && b < lay.Layout.cksum_start + lay.Layout.cksum_blocks
  then Kind.Cksum
  else
    match Layout.group_of_block lay b with
    | None -> Kind.Unknown
    | Some g ->
        if b = Layout.super_copy_block lay g then Kind.Superblock
        else if b = Layout.bitmap_block lay g then Kind.Bitmap
        else if b = Layout.ibitmap_block lay g then Kind.Ibitmap
        else if
          b >= Layout.itable_block lay g
          && b < Layout.itable_block lay g + lay.Layout.itable_blocks
        then Kind.Inode
        else Kind.Data

let geo_of_layout lay =
  {
    Jrnl.jsb = lay.Layout.journal_start;
    jfirst = lay.Layout.journal_start + 1;
    jend = lay.Layout.journal_start + lay.Layout.journal_len;
    num_blocks = lay.Layout.num_blocks;
  }

let policy_of_profile (p : Profile.t) : (module Jrnl.POLICY) =
  (module struct
    let tag = "ext3"
    let mode = p.Profile.mode

    let iron =
      {
        Jrnl.abort_on_journal_write_failure =
          p.Profile.abort_on_journal_write_failure;
        check_write_errors = p.Profile.check_write_errors;
      }
  end)

(* ------------------------------------------------------------------ *)
(* Low-level block access with journal overlay                         *)
(* ------------------------------------------------------------------ *)

(* Reads borrow: they return the journal's staged image or the cache's
   buffer itself, not a copy. A borrowed buffer is read-only, and it is
   used up before the next journal operation, since staging, commit and
   revoke release staged images to the arena. Every site that modifies
   what it read, or holds it across journal work, takes a private copy
   through [owned]. *)
let block_read_raw t b =
  match Jrnl.find t.jrnl b with
  | Some d -> Ok d
  | None -> (
      match Bcache.borrow t.cache b with
      | Ok d -> Ok d
      | Error _ -> Error Errno.EIO)

let owned r = Result.map Bytes.copy r

let txn_put t b data = Jrnl.stage t.jrnl b data

(* The SHA-1 of [data], read from block [b]. A block's current image —
   its journal image, else its cache buffer — hashes its bytes once and
   keeps the digest until it is replaced or dropped; every other buffer
   (a replica, a parity reconstruction, the zero block) is hashed
   afresh. *)
let image_digest t b data =
  match Jrnl.digest t.jrnl b data with
  | Some d -> d
  | None -> (
      match Bcache.digest t.cache b data with
      | Some d -> d
      | None -> Sha1.digest data)

(* The digest of [data] just written to [b], taken from the image that
   write produced (the staged copy, or the cache entry an ordered data
   write inserted), so the block's next verification is a memo hit. An
   image that does not hold [data]'s bytes (the write was refused, or a
   stale journal image shadows the block) cannot stand in for it. *)
let written_digest t b data =
  let img =
    match Jrnl.find t.jrnl b with Some _ as i -> i | None -> Bcache.peek t.cache b
  in
  match img with
  | Some i when Bytes.equal i data -> image_digest t b i
  | Some _ | None -> Sha1.digest data

(* Checksum-table maintenance. Failures here are logged but do not fail
   the triggering operation: losing a checksum degrades protection, not
   correctness. *)
let set_cksum t b data =
  let cb, off = Layout.cksum_location t.lay b in
  match owned (block_read_raw t cb) with
  | Error _ -> Klog.warn t.klog "ixt3" "cannot update checksum block %d" cb
  | Ok blk ->
      let d = Sha1.to_raw (written_digest t b data) in
      Bytes.blit_string d 0 blk off 20;
      Hashtbl.replace t.cksums b d;
      txn_put t cb blk

let stored_cksum t b =
  match Hashtbl.find_opt t.cksums b with
  | Some d -> Some d
  | None -> (
      let cb, off = Layout.cksum_location t.lay b in
      match block_read_raw t cb with
      | Error _ -> None
      | Ok blk ->
          (* Cache the whole table block's worth of digests at once. *)
          let base = b - (b mod t.lay.Layout.cksum_per_block) in
          for i = 0 to t.lay.Layout.cksum_per_block - 1 do
            Hashtbl.replace t.cksums (base + i)
              (Bytes.sub_string blk (i * 20) 20)
          done;
          Some (Bytes.sub_string blk off 20))

let cksum_matches t b data =
  match stored_cksum t b with
  | None -> true (* cannot verify *)
  | Some stored -> String.equal stored (Sha1.to_raw (image_digest t b data))

(* Dynamic-replica map: dynamically allocated metadata (directory and
   indirect blocks) gets a mirror allocated on first write, recorded in
   the rmap region. *)
let rmap_get t b =
  let rb, off = Layout.rmap_location t.lay b in
  match block_read_raw t rb with
  | Error _ -> 0
  | Ok buf -> Codec.read_u32 buf off

let rmap_set t b shadow =
  let rb, off = Layout.rmap_location t.lay b in
  match owned (block_read_raw t rb) with
  | Error _ -> Klog.warn t.klog "ixt3" "cannot update replica map block %d" rb
  | Ok buf ->
      Codec.write_u32 buf off shadow;
      txn_put t rb buf

(* Where is the mirror of metadata block [b], if any? Fixed slots for
   static metadata, the rmap for dynamic metadata. *)
let replica_location t b =
  if not t.profile.Profile.meta_replica then None
  else
    match Layout.replica_of t.lay b with
    | Some r -> Some r
    | None -> ( match rmap_get t b with 0 -> None | r -> Some r)

(* Replica recovery: read the mirror from the far end of the disk. *)
let read_replica t b =
  match replica_location t b with
  | Some r -> (
      match t.dev.Dev.read r with
      | Ok d ->
          Klog.warn t.klog "ixt3" "metadata block %d recovered from replica %d" b r;
          Some d
      | Error _ -> None)
  | None -> None

(* Metadata read: overlay, then cache; verify checksum when enabled;
   fall back to the replica on error or mismatch. *)
let meta_read t cls b =
  match block_read_raw t b with
  | Ok data ->
      if checksummed t cls && not (cksum_matches t b data) then begin
        Klog.error t.klog "ixt3" "checksum mismatch on metadata block %d" b;
        match read_replica t b with
        | Some d when cksum_matches t b d ->
            Bcache.invalidate t.cache b;
            Ok d
        | Some d when Bytes.equal d data ->
            (* Two independent copies agree; the stored checksum is the
               odd one out (e.g. its own in-place write was the one the
               disk lost). Majority wins. *)
            Klog.warn t.klog "ixt3"
              "metadata block %d: primary and replica agree, overriding stale checksum"
              b;
            Ok data
        | Some d ->
            (* The primary is known-bad and the replica is a whole copy
               the journal wrote, even if the stored checksum (itself
               one in-place write) vouches for neither. A stale-but-
               consistent version beats refusing the read. *)
            Klog.warn t.klog "ixt3"
              "metadata block %d: replica adopted over corrupt primary (checksum vouches for neither)"
              b;
            Bcache.invalidate t.cache b;
            Ok d
        | None -> Error Errno.EIO
      end
      else Ok data
  | Error _ -> (
      match read_replica t b with
      | Some d -> Ok d
      | None -> Error Errno.EIO)

(* Forward reference: allocating a shadow block needs the allocator,
   which itself calls [meta_write]; tied together after [alloc_block]
   is defined. *)
let shadow_allocator :
    (state -> int -> (int, Errno.t) result) ref =
  ref (fun _ _ -> Error Errno.ENOSPC)

let is_dynamic_meta = function Dir | Indirect -> true
  | Super | Gdesc | BBitmap | IBitmap | Itable | Data | Cksum -> false

(* Metadata write: into the running transaction, plus checksum and
   replica shadows when those features are on. Dynamic metadata gets a
   mirror allocated (in a distant group) on first write. *)
let meta_write t cls b data =
  if t.readonly then Error Errno.EROFS
  else begin
    txn_put t b data;
    if checksummed t cls then set_cksum t b data;
    (if t.profile.Profile.meta_replica then
       match Layout.replica_of t.lay b with
       | Some r -> txn_put t r data
       | None ->
           if is_dynamic_meta cls then begin
             let shadow =
               match rmap_get t b with
               | 0 -> (
                   match !shadow_allocator t b with
                   | Ok sb ->
                       rmap_set t b sb;
                       sb
                   | Error _ -> 0)
               | sb -> sb
             in
             if shadow <> 0 then txn_put t shadow data
           end);
    Ok ()
  end

let revoke_block t b = Jrnl.revoke t.jrnl b

(* ------------------------------------------------------------------ *)
(* Journal: commit, checkpoint, recovery                               *)
(* ------------------------------------------------------------------ *)

(* Commit and checkpoint are the engine's; ext3 keeps only the abort
   bookkeeping (wired in via hooks at mount) and the op-level plumbing. *)
let checkpoint t = Jrnl.checkpoint t.jrnl
let commit t = Jrnl.commit t.jrnl

(* ------------------------------------------------------------------ *)
(* Inode access                                                        *)
(* ------------------------------------------------------------------ *)

let valid_ino t ino = ino >= 1 && ino <= Layout.total_inodes t.lay

let read_inode t ino =
  if not (valid_ino t ino) then begin
    Klog.error t.klog "ext3" "bad inode number %d" ino;
    Error Errno.EIO
  end
  else
    let blk, off = Layout.inode_location t.lay ino in
    let* buf = meta_read t Itable blk in
    Ok (Inode.decode t.lay buf off)

let write_inode t ino inode =
  let blk, off = Layout.inode_location t.lay ino in
  let* buf = owned (meta_read t Itable blk) in
  Inode.encode t.lay inode buf off;
  meta_write t Itable blk buf

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* A byte of set bits is stepped over whole. *)
let find_clear_bit buf limit =
  let rec go i =
    if i >= limit then None
    else
      let byte = Char.code (Bytes.get buf (i / 8)) in
      if byte = 0xFF && i land 7 = 0 then go (i + 8)
      else if byte land (1 lsl (i mod 8)) = 0 then Some i
      else go (i + 1)
  in
  go 0

let set_bit buf i on =
  let byte = Char.code (Bytes.get buf (i / 8)) in
  let byte' =
    if on then byte lor (1 lsl (i mod 8)) else byte land lnot (1 lsl (i mod 8))
  in
  Bytes.set buf (i / 8) (Char.chr (byte' land 0xFF))

let test_bit buf i = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0

(* Allocation reads inside a transaction abort the journal on failure,
   matching ext3's behaviour for metadata read errors in write paths. *)
let txn_meta_read t cls b =
  match meta_read t cls b with
  | Ok d -> Ok d
  | Error e ->
      Klog.error t.klog "ext3" "metadata read of block %d failed in transaction" b;
      abort_journal t "metadata read failure";
      Error e

let alloc_block t ~goal_group =
  let lay = t.lay in
  let per = Layout.data_blocks_per_group lay in
  let rec try_group k =
    if k >= lay.Layout.ngroups then Error Errno.ENOSPC
    else
      let g = (goal_group + k) mod lay.Layout.ngroups in
      let bb = t.gd_bitmap.(g) in
      let* bitmap = txn_meta_read t BBitmap bb in
      match find_clear_bit bitmap per with
      | None -> try_group (k + 1)
      | Some i ->
          let buf = Bytes.copy bitmap in
          set_bit buf i true;
          let* () = meta_write t BBitmap bb buf in
          t.free_blocks <- t.free_blocks - 1;
          Ok (Layout.data_start lay g + i)
  in
  try_group 0

(* Shadows live in a group far from their primary, so a spatially-local
   fault (a scratch) cannot take out both (§3.3). *)
let () =
  shadow_allocator :=
    fun t b ->
      let g =
        match Layout.group_of_block t.lay b with Some g -> g | None -> 0
      in
      alloc_block t ~goal_group:((g + (t.lay.Layout.ngroups / 2)) mod t.lay.Layout.ngroups)

let rec free_block t b =
  (* Release the dynamic mirror along with its primary. *)
  (if t.profile.Profile.meta_replica then
     match rmap_get t b with
     | 0 -> ()
     | shadow ->
         rmap_set t b 0;
         ignore (free_block t shadow));
  match Layout.group_of_block t.lay b with
  | None -> Ok () (* out-of-range pointer: nothing to free *)
  | Some g ->
      let ds = Layout.data_start t.lay g in
      if b < ds then Ok ()
      else
        let i = b - ds in
        let bb = t.gd_bitmap.(g) in
        let* buf = owned (txn_meta_read t BBitmap bb) in
        if test_bit buf i then begin
          set_bit buf i false;
          let* () = meta_write t BBitmap bb buf in
          t.free_blocks <- t.free_blocks + 1;
          Ok ()
        end
        else Ok ()

let alloc_inode t ~goal_group =
  let lay = t.lay in
  let rec try_group k =
    if k >= lay.Layout.ngroups then Error Errno.ENOSPC
    else
      let g = (goal_group + k) mod lay.Layout.ngroups in
      let ib = t.gd_ibitmap.(g) in
      let* bitmap = txn_meta_read t IBitmap ib in
      match find_clear_bit bitmap lay.Layout.inodes_per_group with
      | None -> try_group (k + 1)
      | Some i ->
          let buf = Bytes.copy bitmap in
          set_bit buf i true;
          let* () = meta_write t IBitmap ib buf in
          t.free_inodes <- t.free_inodes - 1;
          Ok ((g * lay.Layout.inodes_per_group) + i + 1)
  in
  try_group 0

let free_inode t ino =
  let lay = t.lay in
  let g = Layout.group_of_inode lay ino in
  let i = (ino - 1) mod lay.Layout.inodes_per_group in
  let ib = t.gd_ibitmap.(g) in
  let* buf = owned (txn_meta_read t IBitmap ib) in
  set_bit buf i false;
  let* () = meta_write t IBitmap ib buf in
  t.free_inodes <- t.free_inodes + 1;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Block mapping (direct / indirect / double / triple)                 *)
(* ------------------------------------------------------------------ *)

let read_ptr_block t b =
  let* buf = meta_read t Indirect b in
  Ok buf

let get_ptr buf i = Codec.read_u32 buf (i * 4)
let put_ptr buf i v = Codec.write_u32 buf (i * 4) v

(* Map a file block index to a disk block (0 = hole). *)
let bmap t inode fblock =
  let lay = t.lay in
  let d = lay.Layout.direct_ptrs and p = lay.Layout.ptrs_per_block in
  if fblock < d then Ok inode.Inode.direct.(fblock)
  else
    let fblock = fblock - d in
    if fblock < p then
      if inode.Inode.ind = 0 then Ok 0
      else
        let* buf = read_ptr_block t inode.Inode.ind in
        Ok (get_ptr buf fblock)
    else
      let fblock = fblock - p in
      if fblock < p * p then begin
        if inode.Inode.dind = 0 then Ok 0
        else
          let* l1 = read_ptr_block t inode.Inode.dind in
          let mid = get_ptr l1 (fblock / p) in
          if mid = 0 then Ok 0
          else
            let* l2 = read_ptr_block t mid in
            Ok (get_ptr l2 (fblock mod p))
      end
      else
        let fblock = fblock - (p * p) in
        if fblock < p * p * p then begin
          if inode.Inode.tind = 0 then Ok 0
          else
            let* l1 = read_ptr_block t inode.Inode.tind in
            let b1 = get_ptr l1 (fblock / (p * p)) in
            if b1 = 0 then Ok 0
            else
              let* l2 = read_ptr_block t b1 in
              let b2 = get_ptr l2 (fblock / p mod p) in
              if b2 = 0 then Ok 0
              else
                let* l3 = read_ptr_block t b2 in
                Ok (get_ptr l3 (fblock mod p))
        end
        else Error Errno.EFBIG

(* Map and allocate on demand; returns the disk block and the possibly
   updated inode (pointer fields may change). *)
let bmap_alloc t ino inode fblock =
  let lay = t.lay in
  let d = lay.Layout.direct_ptrs and p = lay.Layout.ptrs_per_block in
  let goal_group = Layout.group_of_inode lay ino in
  let alloc_data () = alloc_block t ~goal_group in
  let alloc_ptr_block () =
    let* b = alloc_block t ~goal_group in
    let* () = meta_write t Indirect b (zero_block t) in
    Ok b
  in
  (* Ensure a pointer slot inside pointer-block [b] is filled; return
     (target, allocated?). The block is copied only to be modified, and
     before [alloc_child], whose journal work may release the borrowed
     image. *)
  let ensure_slot b i ~alloc_child =
    let* ptrs = read_ptr_block t b in
    let cur = get_ptr ptrs i in
    if cur <> 0 then Ok (cur, false)
    else
      let buf = Bytes.copy ptrs in
      let* fresh = alloc_child () in
      put_ptr buf i fresh;
      let* () = meta_write t Indirect b buf in
      Ok (fresh, true)
  in
  if fblock < d then begin
    if inode.Inode.direct.(fblock) <> 0 then
      Ok (inode.Inode.direct.(fblock), inode, false)
    else
      let* b = alloc_data () in
      let direct = Array.copy inode.Inode.direct in
      direct.(fblock) <- b;
      Ok (b, { inode with Inode.direct; nblocks = inode.Inode.nblocks + 1 }, true)
  end
  else
    let fb = fblock - d in
    if fb < p then begin
      let* ind, inode =
        if inode.Inode.ind <> 0 then Ok (inode.Inode.ind, inode)
        else
          let* b = alloc_ptr_block () in
          Ok (b, { inode with Inode.ind = b; nblocks = inode.Inode.nblocks + 1 })
      in
      let* target, created = ensure_slot ind fb ~alloc_child:alloc_data in
      let add = if created then 1 else 0 in
      Ok (target, { inode with Inode.nblocks = inode.Inode.nblocks + add }, created)
    end
    else
      let fb = fb - p in
      if fb < p * p then begin
        let* dind, inode =
          if inode.Inode.dind <> 0 then Ok (inode.Inode.dind, inode)
          else
            let* b = alloc_ptr_block () in
            Ok (b, { inode with Inode.dind = b; nblocks = inode.Inode.nblocks + 1 })
        in
        let* mid, c1 = ensure_slot dind (fb / p) ~alloc_child:alloc_ptr_block in
        let* target, c2 = ensure_slot mid (fb mod p) ~alloc_child:alloc_data in
        let add = (if c1 then 1 else 0) + if c2 then 1 else 0 in
        Ok (target, { inode with Inode.nblocks = inode.Inode.nblocks + add }, c2)
      end
      else
        let fb = fb - (p * p) in
        if fb >= p * p * p then Error Errno.EFBIG
        else begin
          let* tind, inode =
            if inode.Inode.tind <> 0 then Ok (inode.Inode.tind, inode)
            else
              let* b = alloc_ptr_block () in
              Ok (b, { inode with Inode.tind = b; nblocks = inode.Inode.nblocks + 1 })
          in
          let* b1, c1 = ensure_slot tind (fb / (p * p)) ~alloc_child:alloc_ptr_block in
          let* b2, c2 = ensure_slot b1 (fb / p mod p) ~alloc_child:alloc_ptr_block in
          let* target, c3 = ensure_slot b2 (fb mod p) ~alloc_child:alloc_data in
          let add = (if c1 then 1 else 0) + (if c2 then 1 else 0) + if c3 then 1 else 0 in
          Ok (target, { inode with Inode.nblocks = inode.Inode.nblocks + add }, c3)
        end

(* Point file block [fblock] (which must already be mapped) at a new
   disk block; used by remap-on-write-failure (RRemap, §3.3). Returns
   the possibly updated inode. *)
let bmap_set t inode fblock newb =
  let lay = t.lay in
  let d = lay.Layout.direct_ptrs and p = lay.Layout.ptrs_per_block in
  let set_slot b i =
    let* buf = owned (read_ptr_block t b) in
    put_ptr buf i newb;
    let* () = meta_write t Indirect b buf in
    Ok inode
  in
  if fblock < d then begin
    let direct = Array.copy inode.Inode.direct in
    direct.(fblock) <- newb;
    Ok { inode with Inode.direct }
  end
  else
    let fb = fblock - d in
    if fb < p then set_slot inode.Inode.ind fb
    else
      let fb = fb - p in
      if fb < p * p then
        let* l1 = read_ptr_block t inode.Inode.dind in
        set_slot (get_ptr l1 (fb / p)) (fb mod p)
      else
        let fb = fb - (p * p) in
        let* l1 = read_ptr_block t inode.Inode.tind in
        let* l2 = read_ptr_block t (get_ptr l1 (fb / (p * p))) in
        set_slot (get_ptr l2 (fb / p mod p)) (fb mod p)

(* ------------------------------------------------------------------ *)
(* Data I/O with Dc (checksums) and Dp (parity)                        *)
(* ------------------------------------------------------------------ *)

(* Eight bytes per step, then the tail a byte at a time. *)
let xor_into dst src =
  let n = Bytes.length dst in
  let words = n land lnot 7 in
  let i = ref 0 in
  while !i < words do
    Bytes.set_int64_ne dst !i
      (Int64.logxor (Bytes.get_int64_ne dst !i) (Bytes.get_int64_ne src !i));
    i := !i + 8
  done;
  for i = words to n - 1 do
    Bytes.set dst i
      (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
  done

let file_blocks_count inode bs =
  (inode.Inode.size + bs - 1) / bs

(* Rebuild one lost data block from the file's parity block and its
   surviving siblings (§6.1). *)
let reconstruct_from_parity t inode ~missing_fblock =
  if inode.Inode.parity = 0 then Error Errno.EIO
  else begin
    let acc = zero_block t in
    let* pdata = block_read_raw t inode.Inode.parity in
    xor_into acc pdata;
    let n = file_blocks_count inode (bsize t) in
    let rec fold i =
      if i >= n then Ok ()
      else if i = missing_fblock then fold (i + 1)
      else
        let* b = bmap t inode i in
        if b = 0 then fold (i + 1)
        else
          let* d = block_read_raw t b in
          xor_into acc d;
          fold (i + 1)
    in
    let* () = fold 0 in
    Klog.warn t.klog "ixt3" "data block %d of file reconstructed from parity"
      missing_fblock;
    Ok acc
  end

(* Read file block [fblock]; holes read as zeroes. *)
let data_read_block t inode fblock =
  let* b = bmap t inode fblock in
  if b = 0 then Ok t.zeros
  else if b >= t.lay.Layout.num_blocks then begin
    (* A garbage pointer (corrupted indirect block): the device refuses. *)
    Klog.error t.klog "ext3" "read of impossible block %d" b;
    Error Errno.EIO
  end
  else
    match block_read_raw t b with
    | Ok data ->
        if t.profile.Profile.data_checksum && not (cksum_matches t b data) then begin
          Klog.error t.klog "ixt3" "checksum mismatch on data block %d" b;
          match reconstruct_from_parity t inode ~missing_fblock:fblock with
          | Ok d -> Ok d
          | Error _ -> Error Errno.EIO
        end
        else Ok data
    | Error _ -> (
        if t.profile.Profile.data_parity then
          match reconstruct_from_parity t inode ~missing_fblock:fblock with
          | Ok d -> Ok d
          | Error _ -> Error Errno.EIO
        else Error Errno.EIO)

(* Write one full block of file data, routed by the profile's commit
   policy. Updates parity incrementally and the data checksum when
   enabled. *)
let data_write_block t ino inode fblock data =
  let* b, inode, fresh = bmap_alloc t ino inode fblock in
  (* Parity update must see the old contents. *)
  let* inode =
    if not t.profile.Profile.data_parity then Ok inode
    else begin
      let* inode =
        if inode.Inode.parity <> 0 then Ok inode
        else
          let* pb = alloc_block t ~goal_group:(Layout.group_of_inode t.lay ino) in
          let* () = meta_write t Data pb (zero_block t) in
          Ok { inode with Inode.parity = pb }
      in
      (* The parity update needs the block's previous contents (zeroes
         for a freshly allocated slot); if the read fails (or fails
         verification), reconstruct from the parity group. *)
      let* old =
        if fresh then Ok t.zeros
        else
        match block_read_raw t b with
        | Ok d when
            (not t.profile.Profile.data_checksum) || cksum_matches t b d ->
            Ok d
        | Ok _ | Error _ -> (
            match reconstruct_from_parity t inode ~missing_fblock:fblock with
            | Ok d -> Ok d
            | Error _ ->
                if t.profile.Profile.check_write_errors then begin
                  Klog.error t.klog "ixt3"
                    "cannot read or reconstruct block %d for parity update" b;
                  Error Errno.EIO
                end
                else Ok (zero_block t))
      in
      let pdata =
        match owned (block_read_raw t inode.Inode.parity) with
        | Ok d -> d
        | Error _ -> zero_block t
      in
      xor_into pdata old;
      xor_into pdata data;
      (* Parity rides the journal: repeated updates to the same file
         coalesce into one block per transaction, then checkpoint
         writes it home with everything else (§6.1's "incorporating
         checksumming into existing transactional machinery" applies to
         parity as well). *)
      (match meta_write t Data inode.Inode.parity pdata with
      | Ok () -> ()
      | Error _ -> Klog.warn t.klog "ixt3" "parity write failed");
      if t.profile.Profile.data_checksum then set_cksum t inode.Inode.parity pdata;
      Ok inode
    end
  in
  let* b, inode =
    (* The commit policy routes the data write: ordered modes issue it
       here (and surface the error to the remap/abort logic below);
       writeback defers it to checkpoint; data-journal stages it into
       the transaction, where it can no longer fail. *)
    match if Jrnl.write_data t.jrnl b data then Ok () else Error () with
    | Ok () -> Ok (b, inode)
    | Error _ when t.profile.Profile.data_remap -> (
        (* RRemap: give the data a new home and repoint the file at it.
           Write failures "can be fixed ... when writing a block" —
           §3.3 — and the file system, unlike the drive, can keep the
           relocation logically close to the file. *)
        let* b2 = alloc_block t ~goal_group:(Layout.group_of_inode t.lay ino) in
        match Bcache.write t.cache b2 data with
        | Ok () ->
            let* inode = bmap_set t inode fblock b2 in
            let* () = free_block t b in
            let* () = write_inode t ino inode in
            Klog.warn t.klog "ixt3" "data block %d remapped to %d after write failure"
              b b2;
            Ok (b2, inode)
        | Error _ ->
            Klog.error t.klog "ext3" "data write to block %d failed (remap failed too)" b;
            abort_journal t "data write failure";
            Ok (b, inode))
    | Error _ ->
        (* Stock ext3 never looks at data write errors (DZero). *)
        if t.profile.Profile.check_write_errors then begin
          Klog.error t.klog "ext3" "data write to block %d failed" b;
          abort_journal t "data write failure"
        end;
        Ok (b, inode)
  in
  if t.profile.Profile.data_checksum then set_cksum t b data;
  if t.aborted then Error Errno.EIO else Ok inode

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)
(* ------------------------------------------------------------------ *)

(* Read a directory block with the retry stock ext3 applies on its
   (prefetching) directory read path. *)
let dir_read_block t b =
  let rec attempt n =
    match meta_read t Dir b with
    | Ok d -> Ok d
    | Error e ->
        if n < t.profile.Profile.dir_read_retries then begin
          Klog.warn t.klog "ext3" "retrying directory block %d" b;
          attempt (n + 1)
        end
        else Error e
  in
  attempt 0

(* All (block_index, disk_block, entries) of a directory. *)
let dir_blocks t inode =
  let n = file_blocks_count inode (bsize t) in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      let* b = bmap t inode i in
      if b = 0 || b >= t.lay.Layout.num_blocks then go (i + 1) acc
      else
        let* buf = dir_read_block t b in
        go (i + 1) ((i, b, Dirent.decode buf) :: acc)
  in
  go 0 []

let dir_lookup t inode name =
  let* blocks = dir_blocks t inode in
  let rec find = function
    | [] -> Error Errno.ENOENT
    | (_, _, entries) :: rest -> (
        match List.assoc_opt name entries with
        | Some ino -> Ok ino
        | None -> find rest)
  in
  find blocks

let dir_add_entry t dino dinode name ino =
  let* blocks = dir_blocks t dinode in
  let rec try_blocks = function
    | [] ->
        (* Need a fresh directory block. *)
        let n = file_blocks_count dinode (bsize t) in
        let* b, dinode, _ = bmap_alloc t dino dinode n in
        let buf = zero_block t in
        ignore (Dirent.encode buf [ (name, ino) ]);
        let* () = meta_write t Dir b buf in
        let dinode = { dinode with Inode.size = (n + 1) * bsize t } in
        write_inode t dino dinode
    | (_, b, entries) :: rest ->
        let entries' = entries @ [ (name, ino) ] in
        if Dirent.fits (bsize t) entries' then begin
          let buf = zero_block t in
          ignore (Dirent.encode buf entries');
          meta_write t Dir b buf
        end
        else try_blocks rest
  in
  try_blocks blocks

let dir_remove_entry t _dino dinode name =
  let* blocks = dir_blocks t dinode in
  let rec go = function
    | [] -> Error Errno.ENOENT
    | (_, b, entries) :: rest ->
        if List.mem_assoc name entries then begin
          let entries' = List.remove_assoc name entries in
          let buf = zero_block t in
          ignore (Dirent.encode buf entries');
          meta_write t Dir b buf
        end
        else go rest
  in
  go blocks

let dir_is_empty t inode =
  let* blocks = dir_blocks t inode in
  let extra =
    List.concat_map (fun (_, _, es) -> es) blocks
    |> List.filter (fun (n, _) -> n <> "." && n <> "..")
  in
  Ok (extra = [])

(* ------------------------------------------------------------------ *)
(* Path resolution                                                     *)
(* ------------------------------------------------------------------ *)

let max_symlink_depth = 8

let rec resolve_from t dir_ino components ~follow_last ~depth =
  if depth > max_symlink_depth then Error Errno.ELOOP
  else
    match components with
    | [] -> Ok dir_ino
    | name :: rest -> (
        let* () = VPath.validate_component name in
        let* dinode = read_inode t dir_ino in
        match dinode.Inode.kind with
        | Inode.Directory -> (
            let* child = dir_lookup t dinode name in
            let* cinode = read_inode t child in
            match cinode.Inode.kind with
            | Inode.Symlink when rest <> [] || follow_last ->
                let target = cinode.Inode.symlink_target in
                let start = if VPath.is_absolute target then t.root else dir_ino in
                let* mid =
                  resolve_from t start (VPath.split target) ~follow_last:true
                    ~depth:(depth + 1)
                in
                resolve_from t mid rest ~follow_last ~depth:(depth + 1)
            | Inode.Free ->
                Klog.error t.klog "ext3" "directory entry references free inode %d"
                  child;
                Error Errno.EIO
            | Inode.Regular | Inode.Directory | Inode.Symlink ->
                resolve_from t child rest ~follow_last ~depth)
        | Inode.Regular | Inode.Symlink -> Error Errno.ENOTDIR
        | Inode.Free ->
            Klog.error t.klog "ext3" "path walk hit free inode %d" dir_ino;
            Error Errno.EIO)

let resolve t ?(follow_last = true) path =
  let start = if VPath.is_absolute path then t.root else t.cwd in
  resolve_from t start (VPath.split path) ~follow_last ~depth:0

(* Resolve the parent directory of [path]; returns (parent_ino, name). *)
let resolve_parent t path =
  let dir, base = VPath.dirname_basename path in
  if base = "" then Error Errno.EINVAL
  else
    let* dino = resolve t dir in
    Ok (dino, base)

(* ------------------------------------------------------------------ *)
(* Freeing file contents (truncate / unlink)                           *)
(* ------------------------------------------------------------------ *)

(* Free every data and indirect block at or past file index [from].
   Read errors while walking the trees are where stock ext3 silently
   leaks: it logs nothing and presses on. Blocks written through the
   journal — indirect blocks, a directory's blocks, the parity block —
   are revoked as they are freed. *)
let free_file_from t inode ~from =
  let lay = t.lay in
  let d = lay.Layout.direct_ptrs and p = lay.Layout.ptrs_per_block in
  let errors = ref 0 in
  let freed = ref 0 in
  let free_plain b =
    if b <> 0 then (
      (match free_block t b with Ok () -> () | Error _ -> incr errors);
      incr freed)
  in
  let free_meta b =
    if b <> 0 then begin
      (match free_block t b with Ok () -> () | Error _ -> incr errors);
      revoke_block t b;
      incr freed
    end
  in
  let free_data =
    if inode.Inode.kind = Inode.Directory then free_meta else free_plain
  in
  (* Free the leaves at or past [from] under pointer block [b], whose
     file range starts at [base]; free [b] itself if its whole range is
     going away. A read error means the children leak — exactly stock
     ext3's behaviour on the delete path. *)
  let rec free_tree level b base =
    if b <> 0 then begin
      let span =
        match level with 1 -> 1 | 2 -> p | _ -> p * p
      in
      (match owned (read_ptr_block t b) with
      | Error _ -> incr errors
      | Ok buf ->
          for i = 0 to p - 1 do
            let child = get_ptr buf i in
            let cbase = base + (i * span) in
            if child <> 0 && cbase + span > from then
              if level = 1 then (if cbase >= from then free_data child)
              else free_tree (level - 1) child cbase
          done);
      if base >= from then free_meta b
    end
  in
  let direct = Array.copy inode.Inode.direct in
  for i = 0 to d - 1 do
    if i >= from && direct.(i) <> 0 then begin
      free_data direct.(i);
      direct.(i) <- 0
    end
  done;
  free_tree 1 inode.Inode.ind d;
  free_tree 2 inode.Inode.dind (d + p);
  free_tree 3 inode.Inode.tind (d + p + (p * p));
  let ind = if from <= d then 0 else inode.Inode.ind in
  let dind = if from <= d + p then 0 else inode.Inode.dind in
  let tind = if from <= d + p + (p * p) then 0 else inode.Inode.tind in
  let parity =
    if from = 0 && inode.Inode.parity <> 0 then begin
      free_meta inode.Inode.parity;
      0
    end
    else inode.Inode.parity
  in
  let nblocks = max 0 (inode.Inode.nblocks - !freed) in
  ({ inode with Inode.direct; ind; dind; tind; parity; nblocks }, !errors)

(* ------------------------------------------------------------------ *)
(* Mkfs                                                                *)
(* ------------------------------------------------------------------ *)

let mkfs_impl profile dev =
  let lay = Layout.compute ~block_size:dev.Dev.block_size ~num_blocks:dev.Dev.num_blocks in
  let bs = lay.Layout.block_size in
  let zero = Bytes.make bs '\000' in
  let wr b data =
    match dev.Dev.write b data with Ok () -> Ok () | Error _ -> Error Errno.EIO
  in
  let cksums = Hashtbl.create 64 in
  let note_cksum b data =
    if profile.Profile.meta_checksum || profile.Profile.data_checksum then
      Hashtbl.replace cksums b (Sha1.to_raw (Sha1.digest data))
  in
  let wr_meta b data =
    note_cksum b data;
    let* () = wr b data in
    if profile.Profile.meta_replica then
      match Layout.replica_of lay b with Some r -> wr r data | None -> Ok ()
    else Ok ()
  in
  (* Zero the whole volume for a deterministic image. *)
  let rec zero_all b =
    if b >= lay.Layout.num_blocks then Ok ()
    else
      let* () = wr b zero in
      zero_all (b + 1)
  in
  let* () = zero_all 0 in
  (* Every group's (still empty) metadata gets its checksum and replica
     now, so later reads can verify them. Group 0's blocks are
     overwritten with real content just below. *)
  let rec init_groups g =
    if g >= lay.Layout.ngroups then Ok ()
    else begin
      let* () = wr_meta (Layout.bitmap_block lay g) zero in
      let* () = wr_meta (Layout.ibitmap_block lay g) zero in
      let rec itable i =
        if i >= lay.Layout.itable_blocks then Ok ()
        else
          let* () = wr_meta (Layout.itable_block lay g + i) zero in
          itable (i + 1)
      in
      let* () = itable 0 in
      init_groups (g + 1)
    end
  in
  let* () = init_groups 0 in
  (* Root directory: inode 2, one dir block (first data block, group 0). *)
  let root_block = Layout.data_start lay 0 in
  let dirbuf = Bytes.make bs '\000' in
  ignore (Dirent.encode dirbuf [ (".", Layout.root_ino); ("..", Layout.root_ino) ]);
  let* () = wr_meta root_block dirbuf in
  (* Inode table, group 0: inode 1 reserved, inode 2 root. *)
  let itbuf = Bytes.make bs '\000' in
  let root =
    {
      (Inode.fresh lay Inode.Directory ~perms:0o755 ~time:0) with
      Inode.links = 2;
      size = bs;
      nblocks = 1;
    }
  in
  let root_inode = { root with Inode.direct = (let a = Array.make lay.Layout.direct_ptrs 0 in a.(0) <- root_block; a) } in
  Inode.encode lay root_inode itbuf ((Layout.root_ino - 1) * lay.Layout.inode_size);
  let* () = wr_meta (Layout.itable_block lay 0) itbuf in
  (* Bitmaps. *)
  let bmbuf = Bytes.make bs '\000' in
  Bytes.set bmbuf 0 '\001' (* root dir block = data bit 0 *);
  let* () = wr_meta (Layout.bitmap_block lay 0) bmbuf in
  let ibbuf = Bytes.make bs '\000' in
  Bytes.set ibbuf 0 '\003' (* inodes 1 and 2 *);
  let* () = wr_meta (Layout.ibitmap_block lay 0) ibbuf in
  (* Remaining groups: bitmaps stay zero (already zeroed). *)
  (* Group descriptor block: per-group locations and free counts. *)
  let gd = Bytes.make bs '\000' in
  let w = Codec.writer gd in
  for g = 0 to lay.Layout.ngroups - 1 do
    Codec.put_u32 w (Layout.bitmap_block lay g);
    Codec.put_u32 w (Layout.ibitmap_block lay g);
    Codec.put_u32 w (Layout.itable_block lay g);
    Codec.put_u32 w (Layout.data_blocks_per_group lay - if g = 0 then 1 else 0);
    Codec.put_u32 w (lay.Layout.inodes_per_group - if g = 0 then 2 else 0)
  done;
  let* () = wr_meta 1 gd in
  (* Journal superblock (+ its replica when Mr). *)
  let jb = Bytes.make bs '\000' in
  Jrec.encode_jsuper { Jrec.sequence = 1; start = lay.Layout.journal_start + 1 } jb;
  let* () = wr lay.Layout.journal_start jb in
  let* () =
    if profile.Profile.meta_replica then
      match Layout.replica_of lay lay.Layout.journal_start with
      | Some r -> wr r jb
      | None -> Ok ()
    else Ok ()
  in
  (* Superblock (+ per-group copies, written once — stock ext3 never
     refreshes them, §5.1). *)
  let sbuf = Bytes.make bs '\000' in
  let sb =
    {
      Sb.block_size = bs;
      num_blocks = lay.Layout.num_blocks;
      state = Sb.Clean;
      mount_count = 0;
      free_blocks = Layout.total_data_blocks lay - 1;
      free_inodes = Layout.total_inodes lay - 2;
      features = Sb.features_of_profile profile;
    }
  in
  Sb.encode sb sbuf;
  let* () = wr 0 sbuf in
  let rec copies g =
    if g >= lay.Layout.ngroups then Ok ()
    else
      let* () = wr (Layout.super_copy_block lay g) sbuf in
      copies (g + 1)
  in
  let* () = copies 0 in
  (* Checksum table for everything we just wrote. *)
  let* () =
    if Hashtbl.length cksums = 0 then Ok ()
    else begin
      let tables = Hashtbl.create 8 in
      Hashtbl.iter
        (fun b digest ->
          let cb, off = Layout.cksum_location lay b in
          let buf =
            match Hashtbl.find_opt tables cb with
            | Some buf -> buf
            | None ->
                let buf = Bytes.make bs '\000' in
                Hashtbl.replace tables cb buf;
                buf
          in
          Bytes.blit_string digest 0 buf off 20)
        cksums;
      Hashtbl.fold
        (fun cb buf acc ->
          let* () = acc in
          wr cb buf)
        tables (Ok ())
    end
  in
  match dev.Dev.sync () with Ok () -> Ok () | Error _ -> Error Errno.EIO

(* ------------------------------------------------------------------ *)
(* Mount (including journal recovery)                                  *)
(* ------------------------------------------------------------------ *)

(* Recovery belongs to the journal core; ext3 supplies the Mr-specific
   fallbacks: reading the journal superblock's replica when the primary
   is unreadable or corrupt, and refreshing fixed-location replicas of
   whatever replay just rewrote. *)
let recover_journal profile lay dev klog =
  let (module P : Jrnl.POLICY) = policy_of_profile profile in
  let module J = Jrnl.Make (P) in
  let jsb_fallback =
    if not profile.Profile.meta_replica then None
    else
      Some
        (fun ~scratch ~why ->
          match Layout.replica_of lay lay.Layout.journal_start with
          | None -> None
          | Some r -> (
              match dev.Dev.read_into r scratch with
              | Error _ -> None
              | Ok () -> (
                  match Jrec.decode_jsuper scratch with
                  | Some js ->
                      Klog.warn klog "ixt3"
                        "journal superblock %s; recovered from replica" why;
                      Some js
                  | None -> None)))
  in
  let refresh_replica =
    if not profile.Profile.meta_replica then None
    else
      Some
        (fun home copy ->
          match Layout.replica_of lay home with
          | Some r -> (
              match dev.Dev.write r copy with Ok () -> () | Error _ -> ())
          | None -> ())
  in
  J.recover ~geo:(geo_of_layout lay) ~dev ~klog ?jsb_fallback ?refresh_replica ()

let mount_impl profile dev =
  let klog = Klog.create ~clock:dev.Dev.now () in
  (* Read and validate the superblock; ixt3 falls back to the copies.
     [Sb.decode] keeps nothing of the buffer, so all candidate blocks
     share one scratch. *)
  let sb_scratch = Bytes.create dev.Dev.block_size in
  let read_sb () =
    let try_block b =
      match dev.Dev.read_into b sb_scratch with
      | Error _ -> Error Errno.EIO
      | Ok () -> (
          match Sb.decode sb_scratch with Ok sb -> Ok sb | Error e -> Error e)
    in
    match try_block 0 with
    | Ok sb -> Ok sb
    | Error e ->
        if Profile.any_iron profile then begin
          (* Try the per-group copies; geometry must be recomputed
             blind, so use the mkfs layout for this device. *)
          let lay =
            Layout.compute ~block_size:dev.Dev.block_size
              ~num_blocks:dev.Dev.num_blocks
          in
          let rec try_copies g =
            if g >= lay.Layout.ngroups then Error e
            else
              match try_block (Layout.super_copy_block lay g) with
              | Ok sb ->
                  Klog.warn klog "ixt3" "superblock recovered from copy in group %d" g;
                  Ok sb
              | Error _ -> try_copies (g + 1)
          in
          try_copies 0
        end
        else begin
          Klog.error klog "ext3" "cannot read superblock";
          Error e
        end
  in
  let* sb = read_sb () in
  if sb.Sb.block_size <> dev.Dev.block_size then Error Errno.EINVAL
  else begin
    let lay =
      Layout.compute ~block_size:sb.Sb.block_size ~num_blocks:sb.Sb.num_blocks
    in
    (* Journal recovery before anything else touches the metadata. *)
    let* jseq = recover_journal profile lay dev klog in
    (* Group descriptors. *)
    (* Group descriptors are decoded into arrays below and the raw
       block dropped, so the superblock scratch is reused here. *)
    let* gd =
      match dev.Dev.read_into 1 sb_scratch with
      | Ok () -> Ok sb_scratch
      | Error _ -> (
          Klog.error klog "ext3" "cannot read group descriptors";
          if profile.Profile.meta_replica then
            match Layout.replica_of lay 1 with
            | Some r -> (
                match dev.Dev.read_into r sb_scratch with
                | Ok () ->
                    Klog.warn klog "ixt3" "group descriptors recovered from replica";
                    Ok sb_scratch
                | Error _ -> Error Errno.EIO)
            | None -> Error Errno.EIO
          else Error Errno.EIO)
    in
    let n = lay.Layout.ngroups in
    let gd_bitmap = Array.make n 0 in
    let gd_ibitmap = Array.make n 0 in
    let gd_itable = Array.make n 0 in
    let free_blocks = ref 0 and free_inodes = ref 0 in
    let r = Codec.reader gd in
    (try
       for g = 0 to n - 1 do
         gd_bitmap.(g) <- Codec.get_u32 r;
         gd_ibitmap.(g) <- Codec.get_u32 r;
         gd_itable.(g) <- Codec.get_u32 r;
         free_blocks := !free_blocks + Codec.get_u32 r;
         free_inodes := !free_inodes + Codec.get_u32 r
       done
     with Codec.Decode_error _ -> ());
    let cache = Bcache.create ~capacity:512 dev in
    let (module P : Jrnl.POLICY) = policy_of_profile profile in
    let module J = Jrnl.Make (P) in
    let jrnl =
      J.create ~tuning:profile.Profile.tuning ~dev ~cache ~klog
        ~kinds:(kind_of_block lay) ~geo:(geo_of_layout lay)
        ~journaled:(fun b -> b < lay.Layout.replica_start)
        ~seq:jseq ()
    in
    let t =
      {
        profile;
        dev;
        lay;
        klog;
        cache;
        zeros = Bytes.make lay.Layout.block_size '\000';
        free_blocks = !free_blocks;
        free_inodes = !free_inodes;
        gd_bitmap;
        gd_ibitmap;
        gd_itable;
        readonly = false;
        aborted = false;
        jrnl;
        fds = Hashtbl.create 16;
        next_fd = 3;
        cwd = Layout.root_ino;
        root = Layout.root_ino;
        cksums = Hashtbl.create 256;
        rlog_head = lay.Layout.rlog_start;
      }
    in
    (* The hooks close over the state record, which in turn holds the
       engine — hence the two-phase construction. Replica copies do not
       ride the regular journal: they stream to the separate replica
       log after each commit and reach their fixed homes at checkpoint
       (§6.1); Mr also shadows the journal superblock itself. *)
    J.connect jrnl
      ~on_abort:(fun why -> abort_journal t why)
      ~aborted:(fun () -> t.aborted)
      ?jsb_shadow:
        (if not profile.Profile.meta_replica then None
         else
           Some
             (fun buf ->
               match Layout.replica_of lay lay.Layout.journal_start with
               | Some r -> (
                   match dev.Dev.write r buf with Ok () | Error _ -> ())
               | None -> ()))
      ?post_commit:
        (if not profile.Profile.meta_replica then None
         else
           Some
             (fun blocks ->
               List.iter
                 (fun (b, data) ->
                   (* Only the replica copies themselves stream to the log. *)
                   if b >= lay.Layout.replica_start then begin
                     if
                       t.rlog_head
                       >= lay.Layout.rlog_start + lay.Layout.rlog_blocks
                     then t.rlog_head <- lay.Layout.rlog_start;
                     (match dev.Dev.write t.rlog_head data with
                     | Ok () -> ()
                     | Error _ -> () (* the primaries' journal is authoritative *));
                     t.rlog_head <- t.rlog_head + 1
                   end)
                 blocks))
      ();
    (* Mark the volume dirty. Stock ext3 ignores a failure here too. *)
    let sbuf = Bytes.make lay.Layout.block_size '\000' in
    Sb.encode { sb with Sb.state = Sb.Dirty; mount_count = sb.Sb.mount_count + 1 } sbuf;
    (match dev.Dev.write 0 sbuf with
    | Ok () -> ()
    | Error _ ->
        if profile.Profile.check_write_errors then begin
          Klog.error klog "ext3" "superblock write failed at mount";
          t.readonly <- true
        end);
    Ok t
  end

(* ------------------------------------------------------------------ *)
(* Write-path helpers and guards                                       *)
(* ------------------------------------------------------------------ *)

let guard_write t = if t.readonly then Error Errno.EROFS else Ok ()

(* Update group-descriptor free counts on disk lazily: we serialize the
   in-memory values wholesale whenever allocation state changed. *)
let flush_gd t =
  let bs = bsize t in
  let gd = Bytes.make bs '\000' in
  let w = Codec.writer gd in
  (* Recompute per-group splits approximately: totals are what matter
     for statfs; per-group counts are informational. *)
  for g = 0 to t.lay.Layout.ngroups - 1 do
    Codec.put_u32 w t.gd_bitmap.(g);
    Codec.put_u32 w t.gd_ibitmap.(g);
    Codec.put_u32 w t.gd_itable.(g);
    Codec.put_u32 w (t.free_blocks / t.lay.Layout.ngroups);
    Codec.put_u32 w (t.free_inodes / t.lay.Layout.ngroups)
  done;
  meta_write t Gdesc 1 gd

(* Run a mutating operation: body builds the transaction; then the
   group descriptors are folded in. Commit happens on fsync/sync or
   journal pressure, as on the real system. *)
let in_txn t body =
  let* () = guard_write t in
  let* r = body () in
  let* () = flush_gd t in
  Ok r

(* ------------------------------------------------------------------ *)
(* POSIX-style operations                                              *)
(* ------------------------------------------------------------------ *)

let stat_of_inode ino (i : Inode.t) =
  {
    Fs.st_ino = ino;
    st_kind =
      (match i.Inode.kind with
      | Inode.Directory -> Fs.Directory
      | Inode.Symlink -> Fs.Symlink
      | Inode.Regular | Inode.Free -> Fs.Regular);
    st_size = i.Inode.size;
    st_links = i.Inode.links;
    st_mode = i.Inode.perms;
    st_uid = i.Inode.uid;
    st_gid = i.Inode.gid;
    st_atime = float_of_int i.Inode.atime;
    st_mtime = float_of_int i.Inode.mtime;
    st_ctime = float_of_int i.Inode.ctime;
  }

(* The paper's inode sanity check: open validates the size field. *)
let sane_size t (i : Inode.t) =
  i.Inode.size <= Inode.max_file_blocks t.lay * bsize t

let op_access t path =
  let* _ino = resolve t path in
  Ok ()

let op_chdir t path =
  let* ino = resolve t path in
  let* i = read_inode t ino in
  match i.Inode.kind with
  | Inode.Directory ->
      t.cwd <- ino;
      Ok ()
  | Inode.Regular | Inode.Symlink | Inode.Free -> Error Errno.ENOTDIR

let op_chroot t path =
  let* ino = resolve t path in
  let* i = read_inode t ino in
  match i.Inode.kind with
  | Inode.Directory ->
      t.root <- ino;
      t.cwd <- ino;
      Ok ()
  | Inode.Regular | Inode.Symlink | Inode.Free -> Error Errno.ENOTDIR

let op_stat t path =
  let* ino = resolve t path in
  let* i = read_inode t ino in
  Ok (stat_of_inode ino i)

let op_lstat t path =
  let* ino = resolve t ~follow_last:false path in
  let* i = read_inode t ino in
  Ok (stat_of_inode ino i)

let op_statfs t =
  Ok
    {
      Fs.f_blocks = Layout.total_data_blocks t.lay;
      f_bfree = t.free_blocks;
      f_files = Layout.total_inodes t.lay;
      f_ffree = t.free_inodes;
      f_bsize = bsize t;
    }

let op_open t path mode =
  let* ino = resolve t path in
  let* i = read_inode t ino in
  match i.Inode.kind with
  | Inode.Directory when mode <> Fs.Rd -> Error Errno.EISDIR
  | Inode.Free ->
      Klog.error t.klog "ext3" "open of free inode %d" ino;
      Error Errno.EIO
  | Inode.Regular | Inode.Directory | Inode.Symlink ->
      if not (sane_size t i) then begin
        Klog.error t.klog "ext3" "inode %d has impossible size %d" ino i.Inode.size;
        Error Errno.EUCLEAN
      end
      else begin
        let fd = t.next_fd in
        t.next_fd <- fd + 1;
        Hashtbl.replace t.fds fd { fd_ino = ino; fd_mode = mode };
        Ok fd
      end

let op_close t fd =
  if Hashtbl.mem t.fds fd then begin
    Hashtbl.remove t.fds fd;
    Ok ()
  end
  else Error Errno.EBADF

(* Create a fresh inode linked under [path]; shared by creat / mkdir /
   symlink. *)
let create_node t path kind ~perms ~target =
  in_txn t (fun () ->
      let* dino, name = resolve_parent t path in
      let* () = VPath.validate_component name in
      let* dinode = read_inode t dino in
      if dinode.Inode.kind <> Inode.Directory then Error Errno.ENOTDIR
      else
        match dir_lookup t dinode name with
        | Ok _ -> Error Errno.EEXIST
        | Error Errno.ENOENT ->
            let* ino = alloc_inode t ~goal_group:(Layout.group_of_inode t.lay dino) in
            let time = now_seconds t in
            let node = Inode.fresh t.lay kind ~perms ~time in
            let node = { node with Inode.symlink_target = target } in
            let* node =
              if kind <> Inode.Directory then Ok node
              else begin
                (* "." and ".." plus the parent's link. *)
                let* b, node, _ = bmap_alloc t ino node 0 in
                let buf = zero_block t in
                ignore (Dirent.encode buf [ (".", ino); ("..", dino) ]);
                let* () = meta_write t Dir b buf in
                Ok { node with Inode.links = 2; size = bsize t }
              end
            in
            let* () = write_inode t ino node in
            let* () = dir_add_entry t dino dinode name ino in
            let* dinode = read_inode t dino in
            let* () =
              if kind = Inode.Directory then
                write_inode t dino
                  { dinode with Inode.links = dinode.Inode.links + 1;
                    mtime = time; ctime = time }
              else
                write_inode t dino { dinode with Inode.mtime = time; ctime = time }
            in
            Ok ino
        | Error e -> Error e)

let op_creat t path =
  let* ino = create_node t path Inode.Regular ~perms:0o644 ~target:"" in
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd { fd_ino = ino; fd_mode = Fs.Rdwr };
  Ok fd

let op_mkdir t path =
  let* _ino = create_node t path Inode.Directory ~perms:0o755 ~target:"" in
  Ok ()

let op_symlink t target linkpath =
  let* _ino = create_node t linkpath Inode.Symlink ~perms:0o777 ~target in
  Ok ()

let op_link t existing linkpath =
  in_txn t (fun () ->
      let* ino = resolve t existing in
      let* i = read_inode t ino in
      if i.Inode.kind = Inode.Directory then Error Errno.EISDIR
      else
        let* dino, name = resolve_parent t linkpath in
        let* () = VPath.validate_component name in
        let* dinode = read_inode t dino in
        match dir_lookup t dinode name with
        | Ok _ -> Error Errno.EEXIST
        | Error Errno.ENOENT ->
            let* () = dir_add_entry t dino dinode name ino in
            write_inode t ino
              { i with Inode.links = i.Inode.links + 1; ctime = now_seconds t }
        | Error e -> Error e)

let op_readlink t path =
  let* ino = resolve t ~follow_last:false path in
  let* i = read_inode t ino in
  match i.Inode.kind with
  | Inode.Symlink -> Ok i.Inode.symlink_target
  | Inode.Regular | Inode.Directory | Inode.Free -> Error Errno.EINVAL

let op_getdirentries t path =
  let* ino = resolve t path in
  let* i = read_inode t ino in
  if i.Inode.kind <> Inode.Directory then Error Errno.ENOTDIR
  else
    let* blocks = dir_blocks t i in
    Ok (List.concat_map (fun (_, _, es) -> es) blocks)

let op_read t fd ~off ~len =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Errno.EBADF
  | Some { fd_ino; _ } ->
      let* i = read_inode t fd_ino in
      let bs = bsize t in
      let len = max 0 (min len (i.Inode.size - off)) in
      if len = 0 then Ok Bytes.empty
      else begin
        let out = Bytes.create len in
        let rec fill pos =
          if pos >= len then Ok ()
          else
            let fblock = (off + pos) / bs in
            let boff = (off + pos) mod bs in
            let n = min (bs - boff) (len - pos) in
            let* data = data_read_block t i fblock in
            Bytes.blit data boff out pos n;
            fill (pos + n)
        in
        let* () = fill 0 in
        Ok out
      end

let op_write t fd ~off data =
  match Hashtbl.find_opt t.fds fd with
  | None -> Error Errno.EBADF
  | Some { fd_ino; fd_mode } ->
      if fd_mode = Fs.Rd then Error Errno.EBADF
      else
        in_txn t (fun () ->
            let* i0 = read_inode t fd_ino in
            let bs = bsize t in
            let len = Bytes.length data in
            let inode = ref i0 in
            let rec put pos =
              if pos >= len then Ok ()
              else
                let fblock = (off + pos) / bs in
                let boff = (off + pos) mod bs in
                let n = min (bs - boff) (len - pos) in
                let* buf =
                  if boff = 0 && n = bs then Ok (Bytes.sub data pos n)
                  else
                    (* Read-modify-write for partial blocks. *)
                    let* old = owned (data_read_block t !inode fblock) in
                    Bytes.blit data pos old boff n;
                    Ok old
                in
                let* inode' = data_write_block t fd_ino !inode fblock buf in
                inode := inode';
                put (pos + n)
            in
            let* () = put 0 in
            let time = now_seconds t in
            let size = max i0.Inode.size (off + len) in
            let* () =
              write_inode t fd_ino
                { !inode with Inode.size; mtime = time; ctime = time }
            in
            Ok len)

let op_truncate t path size =
  in_txn t (fun () ->
      let* ino = resolve t path in
      let* i = read_inode t ino in
      if i.Inode.kind = Inode.Directory then Error Errno.EISDIR
      else if size > Inode.max_file_blocks t.lay * bsize t then Error Errno.EFBIG
      else begin
        let bs = bsize t in
        let keep = (size + bs - 1) / bs in
        let i', errors = free_file_from t i ~from:keep in
        (* Shrinking into the middle of a block: its tail must read as
           zeroes if the file later grows again. *)
        let* i' =
          if size >= i.Inode.size || size mod bs = 0 then Ok i'
          else
            let fblock = size / bs in
            let* b = bmap t i' fblock in
            if b = 0 then Ok i'
            else
              let* old = owned (data_read_block t i' fblock) in
              Bytes.fill old (size mod bs) (bs - (size mod bs)) '\000';
              data_write_block t ino i' fblock old
        in
        let time = now_seconds t in
        let* () =
          write_inode t ino { i' with Inode.size; mtime = time; ctime = time }
        in
        if errors > 0 then begin
          Klog.error t.klog "ext3" "%d read failures while truncating" errors;
          (* Stock ext3 swallows the error: truncate "fails silently". *)
          if t.profile.Profile.propagate_delete_errors then Error Errno.EIO
          else Ok ()
        end
        else Ok ()
      end)

let remove_common t path ~dir =
  in_txn t (fun () ->
      let* () =
        (* Deleting the root itself. *)
        if VPath.split path = [] then
          Error (if dir then Errno.EINVAL else Errno.EISDIR)
        else Ok ()
      in
      let* dino, name = resolve_parent t path in
      let* dinode = read_inode t dino in
      let* ino = dir_lookup t dinode name in
      let* i = read_inode t ino in
      match (dir, i.Inode.kind) with
      | true, k when k <> Inode.Directory -> Error Errno.ENOTDIR
      | false, Inode.Directory -> Error Errno.EISDIR
      | _ ->
          let* () =
            if not dir then Ok ()
            else
              let* empty = dir_is_empty t i in
              if empty then Ok () else Error Errno.ENOTEMPTY
          in
          (* The linkcount bug: stock ext3 decrements without checking,
             and a corrupted zero count takes the kernel down (§5.1). *)
          if i.Inode.links = 0 then begin
            if t.profile.Profile.sanity_check_linkcount then begin
              Klog.error t.klog "ext3" "inode %d has zero link count" ino;
              Error Errno.EUCLEAN
            end
            else
              Klog.panic t.klog "ext3"
                "kernel BUG: deleting inode %d with links_count=0" ino
          end
          else begin
            let time = now_seconds t in
            let* () = dir_remove_entry t dino dinode name in
            let links = i.Inode.links - (if dir then 2 else 1) in
            if (dir && links <= 1) || ((not dir) && links = 0) then begin
              (* Last link: release everything. *)
              let i', errors = free_file_from t i ~from:0 in
              let* () = write_inode t ino { i' with Inode.kind = Inode.Free; links = 0 } in
              let* () = free_inode t ino in
              let* () =
                if dir then
                  let* d = read_inode t dino in
                  write_inode t dino
                    { d with Inode.links = d.Inode.links - 1; mtime = time; ctime = time }
                else
                  let* d = read_inode t dino in
                  write_inode t dino { d with Inode.mtime = time; ctime = time }
              in
              if errors > 0 && t.profile.Profile.propagate_delete_errors then begin
                Klog.error t.klog "ext3" "read failures while freeing inode %d" ino;
                Error Errno.EIO
              end
              else Ok ()
            end
            else
              let* () = write_inode t ino { i with Inode.links; ctime = time } in
              let* d = read_inode t dino in
              write_inode t dino { d with Inode.mtime = time; ctime = time }
          end)

let op_unlink t path = remove_common t path ~dir:false
let op_rmdir t path = remove_common t path ~dir:true

let op_rename t src dst =
  in_txn t (fun () ->
      let* sdino, sname = resolve_parent t src in
      let* sdinode = read_inode t sdino in
      let* ino = dir_lookup t sdinode sname in
      let* ddino, dname = resolve_parent t dst in
      let* () = VPath.validate_component dname in
      let* ddinode = read_inode t ddino in
      let* () =
        (* Replace an existing target if present (files only). *)
        match dir_lookup t ddinode dname with
        | Ok old when old <> ino -> (
            let* oi = read_inode t old in
            match oi.Inode.kind with
            | Inode.Directory -> Error Errno.EISDIR
            | Inode.Regular | Inode.Symlink | Inode.Free ->
                let* () = dir_remove_entry t ddino ddinode dname in
                let links = max 0 (oi.Inode.links - 1) in
                if links = 0 then begin
                  let oi', _ = free_file_from t oi ~from:0 in
                  let* () =
                    write_inode t old { oi' with Inode.kind = Inode.Free; links = 0 }
                  in
                  free_inode t old
                end
                else write_inode t old { oi with Inode.links })
        | Ok _ -> Ok ()
        | Error Errno.ENOENT -> Ok ()
        | Error e -> Error e
      in
      let* sdinode = read_inode t sdino in
      let* () = dir_remove_entry t sdino sdinode sname in
      let* ddinode = read_inode t ddino in
      let* () = dir_add_entry t ddino ddinode dname ino in
      (* Directory moves update "..": and the parents' link counts. *)
      let* i = read_inode t ino in
      if i.Inode.kind = Inode.Directory && sdino <> ddino then begin
        let* blocks = dir_blocks t i in
        let* () =
          match blocks with
          | (_, b, entries) :: _ ->
              let entries' =
                List.map (fun (n, e) -> if n = ".." then (n, ddino) else (n, e)) entries
              in
              let buf = zero_block t in
              ignore (Dirent.encode buf entries');
              meta_write t Dir b buf
          | [] -> Ok ()
        in
        let* sd = read_inode t sdino in
        let* () = write_inode t sdino { sd with Inode.links = sd.Inode.links - 1 } in
        let* dd = read_inode t ddino in
        write_inode t ddino { dd with Inode.links = dd.Inode.links + 1 }
      end
      else Ok ())

let update_inode_meta t path f =
  in_txn t (fun () ->
      let* ino = resolve t path in
      let* i = read_inode t ino in
      write_inode t ino (f i))

let op_chmod t path perms =
  update_inode_meta t path (fun i ->
      { i with Inode.perms; ctime = now_seconds t })

let op_chown t path uid gid =
  update_inode_meta t path (fun i ->
      { i with Inode.uid = uid; gid; ctime = now_seconds t })

let op_utimes t path atime mtime =
  update_inode_meta t path (fun i ->
      { i with Inode.atime = int_of_float atime; mtime = int_of_float mtime })

(* fsync forces the running transaction into the journal (durable but
   not yet checkpointed); sync additionally checkpoints everything to
   its home location, like a full flush of kjournald + pdflush. The
   distinction matters to fault injection: checkpoint writes are where
   stock ext3 loses write errors. *)
let op_fsync t fd =
  if Hashtbl.mem t.fds fd then commit t else Error Errno.EBADF

let op_sync t =
  let* () = commit t in
  checkpoint t;
  if t.aborted then Error Errno.EROFS else Ok ()

let op_unmount t =
  let* () = commit t in
  checkpoint t;
  if t.aborted then Error Errno.EROFS
  else begin
    (* Write back a clean superblock (and, for ixt3+Mr, refresh the
       per-group copies — stock ext3 famously never does, §5.1). *)
    let bs = bsize t in
    let sbuf = Bytes.make bs '\000' in
    let sb =
      {
        Sb.block_size = bs;
        num_blocks = t.lay.Layout.num_blocks;
        state = Sb.Clean;
        mount_count = 0;
        free_blocks = t.free_blocks;
        free_inodes = t.free_inodes;
        features = Sb.features_of_profile t.profile;
      }
    in
    Sb.encode sb sbuf;
    (match t.dev.Dev.write 0 sbuf with
    | Ok () -> ()
    | Error _ ->
        if t.profile.Profile.check_write_errors then begin
          Klog.error t.klog "ext3" "superblock write failed at unmount";
          abort_journal t "superblock write"
        end);
    if t.profile.Profile.meta_replica then
      for g = 0 to t.lay.Layout.ngroups - 1 do
        match t.dev.Dev.write (Layout.super_copy_block t.lay g) sbuf with
        | Ok () -> ()
        | Error _ -> Klog.warn t.klog "ixt3" "superblock copy %d not refreshed" g
      done;
    ignore (t.dev.Dev.sync ());
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Packaging as a Fs.brand                                             *)
(* ------------------------------------------------------------------ *)

let layout_of_dev dev =
  Layout.compute ~block_size:dev.Dev.block_size ~num_blocks:dev.Dev.num_blocks

let brand profile =
  let module M = struct
    let fs_name = profile.Profile.name
    let block_types = Classifier.block_types
    let classifier = Classifier.classify
    let corrupt_field = Classifier.corrupt_field

    type t = state

    let mkfs dev = mkfs_impl profile dev
    let mount dev = mount_impl profile dev
    let unmount = op_unmount
    let klog t = t.klog
    let is_readonly t = t.readonly
    let access = op_access
    let chdir = op_chdir
    let chroot = op_chroot
    let stat = op_stat
    let lstat = op_lstat
    let statfs t = op_statfs t
    let open_ = op_open
    let close = op_close
    let creat = op_creat
    let read t fd ~off ~len = op_read t fd ~off ~len
    let write t fd ~off data = op_write t fd ~off data
    let readlink = op_readlink
    let getdirentries = op_getdirentries
    let link = op_link
    let symlink = op_symlink
    let mkdir = op_mkdir
    let rmdir = op_rmdir
    let unlink = op_unlink
    let rename = op_rename
    let truncate = op_truncate
    let chmod = op_chmod
    let chown = op_chown
    let utimes = op_utimes
    let fsync = op_fsync
    let sync = op_sync
  end in
  Fs.Brand (module M)

let std = brand Profile.ext3
let ixt3 = brand Profile.ixt3
