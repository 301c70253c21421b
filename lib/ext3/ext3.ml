open Iron_util
module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fs = Iron_vfs.Fs
module Posix = Iron_vfs.Posix
module Obs = Iron_obs.Obs
module Jrnl = Iron_jrnl.Jrnl
module Jrec = Iron_jrnl.Jrec

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

type state = {
  profile : Profile.t;
  dev : Dev.t;
  lay : Layout.t;
  klog : Klog.t;
  cache : Bcache.t;
  mutable free_blocks : int;
  mutable free_inodes : int;
  (* group descriptor table, kept in memory as on real systems *)
  gd_bitmap : int array;
  gd_ibitmap : int array;
  gd_itable : int array;
  mutable readonly : bool; (* mount could not mark the volume dirty *)
  (* journaling: transaction state, and whether the journal aborted,
     live in the shared engine, built from the profile's policy *)
  jrnl : Jrnl.t;
  (* "Checksums are very small and can be cached for read
     verification" (§6.1): block -> raw SHA-1, loaded lazily. *)
  cksums : (int, string) Hashtbl.t;
}

let bsize t = t.lay.Layout.block_size

(* Every private block — a copy to modify, a fresh zero block — comes
   from the calling domain's arena, and the journal adopts what it is
   staged with, handing the buffer back when the image dies. *)
let arena t = Arena.block (bsize t)
let zero_block t = Arena.get_zeroed (arena t)

let is_meta_cls = function
  | Gdesc | BBitmap | IBitmap | Itable | Dir | Indirect -> true
  | Super | Data | Cksum -> false

let checksummed t cls =
  (t.profile.Profile.meta_checksum && is_meta_cls cls)
  || (t.profile.Profile.data_checksum && cls = Data)

(* An aborted journal remounts the volume read-only. *)
let readonly t = t.readonly || Jrnl.aborted t.jrnl

(* ------------------------------------------------------------------ *)
(* Commit policy handed to the journal core                            *)
(* ------------------------------------------------------------------ *)

let policy_of_profile (p : Profile.t) =
  {
    Jrnl.tag = "ext3";
    mode = p.Profile.mode;
    iron = (if p.Profile.bugs_fixed then Jrnl.Abort else Jrnl.Ignore);
    format = Jrec.jbd;
  }

(* ------------------------------------------------------------------ *)
(* Low-level block access with journal overlay                         *)
(* ------------------------------------------------------------------ *)

(* Reads borrow: they return the journal's staged image or the cache's
   buffer itself, not a copy. A borrowed buffer is read-only, and it is
   used up before the next journal operation, since staging, commit and
   revoke release staged images to the arena. Every site that modifies
   what it read, or holds it across journal work, takes a private copy
   through [owned]. Holes read as the shared {!Arena.zeros} block. *)
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
  match owned t (block_read_raw t cb) with
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
  match owned t (block_read_raw t rb) with
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
   mirror allocated (in a distant group) on first write. The primary
   image adopts [data], a buffer the caller owns and never touches
   again; nothing before the end of this function stages [b], so [data]
   is still the current image when the checksum reads it and each
   replica stages its own copy of it. *)
let meta_write t cls b data =
  if readonly t then Error Errno.EROFS
  else begin
    txn_put t b data;
    if checksummed t cls then set_cksum t b data;
    (if t.profile.Profile.meta_replica then
       match Layout.replica_of t.lay b with
       | Some r -> txn_put t r (Arena.copy (arena t) data)
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
             if shadow <> 0 then txn_put t shadow (Arena.copy (arena t) data)
           end);
    Ok ()
  end

let revoke_block t b = Jrnl.revoke t.jrnl b

(* ------------------------------------------------------------------ *)
(* Journal: commit, checkpoint, recovery                               *)
(* ------------------------------------------------------------------ *)

(* Commit, checkpoint and the aborted flag are the engine's; ext3 keeps
   the op-level plumbing. *)
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
  let* buf = owned t (meta_read t Itable blk) in
  Inode.encode t.lay inode buf off;
  meta_write t Itable blk buf

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Allocation reads inside a transaction abort the journal on failure,
   matching ext3's behaviour for metadata read errors in write paths. *)
let txn_meta_read t cls b =
  match meta_read t cls b with
  | Ok d -> Ok d
  | Error e ->
      Klog.error t.klog "ext3" "metadata read of block %d failed in transaction" b;
      Jrnl.abort t.jrnl "metadata read failure";
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
      match Bitmap.find_clear bitmap per with
      | None -> try_group (k + 1)
      | Some i ->
          let buf = Arena.copy (arena t) bitmap in
          Bitmap.set buf i true;
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
        let* buf = owned t (txn_meta_read t BBitmap bb) in
        if Bitmap.get buf i then begin
          Bitmap.set buf i false;
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
      match Bitmap.find_clear bitmap lay.Layout.inodes_per_group with
      | None -> try_group (k + 1)
      | Some i ->
          let buf = Arena.copy (arena t) bitmap in
          Bitmap.set buf i true;
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
  let* buf = owned t (txn_meta_read t IBitmap ib) in
  Bitmap.set buf i false;
  let* () = meta_write t IBitmap ib buf in
  t.free_inodes <- t.free_inodes + 1;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Block mapping (direct / indirect / double / triple)                 *)
(* ------------------------------------------------------------------ *)

let read_ptr_block t b = meta_read t Indirect b

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
      let buf = Arena.copy (arena t) ptrs in
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
    let* buf = owned t (read_ptr_block t b) in
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
  if b = 0 then Ok (Arena.zeros (bsize t))
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
        if fresh then Ok (Arena.zeros (bsize t))
        else
        match block_read_raw t b with
        | Ok d when
            (not t.profile.Profile.data_checksum) || cksum_matches t b d ->
            Ok d
        | Ok _ | Error _ -> (
            match reconstruct_from_parity t inode ~missing_fblock:fblock with
            | Ok d -> Ok d
            | Error _ ->
                if t.profile.Profile.bugs_fixed then begin
                  Klog.error t.klog "ixt3"
                    "cannot read or reconstruct block %d for parity update" b;
                  Error Errno.EIO
                end
                else Ok (zero_block t))
      in
      let pdata =
        match owned t (block_read_raw t inode.Inode.parity) with
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
            Jrnl.abort t.jrnl "data write failure";
            Ok (b, inode))
    | Error _ ->
        (* Stock ext3 never looks at data write errors (DZero). *)
        if t.profile.Profile.bugs_fixed then begin
          Klog.error t.klog "ext3" "data write to block %d failed" b;
          Jrnl.abort t.jrnl "data write failure"
        end;
        Ok (b, inode)
  in
  if t.profile.Profile.data_checksum then set_cksum t b data;
  if Jrnl.aborted t.jrnl then Error Errno.EIO else Ok inode

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)
(* ------------------------------------------------------------------ *)

(* Read a directory block with the one retry stock ext3 applies on its
   (prefetching) directory read path, as the paper observed; ixt3 keeps
   it. *)
let dir_read_retries = 1

let dir_read_block t b =
  let rec attempt n =
    match meta_read t Dir b with
    | Ok d -> Ok d
    | Error e ->
        if n < dir_read_retries then begin
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

let dir_remove_entry t dinode name =
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
     going away, or else clear its slots for the subtrees it freed, so
     that no freed block stays claimed. A read error means the children
     leak — exactly stock ext3's behaviour on the delete path. *)
  let rec free_tree level b base =
    if b <> 0 then begin
      let span =
        match level with 1 -> 1 | 2 -> p | _ -> p * p
      in
      (match owned t (read_ptr_block t b) with
      | Error _ -> incr errors
      | Ok buf ->
          let cleared = ref false in
          for i = 0 to p - 1 do
            let child = get_ptr buf i in
            let cbase = base + (i * span) in
            if child <> 0 && cbase + span > from then begin
              if level = 1 then (if cbase >= from then free_data child)
              else free_tree (level - 1) child cbase;
              if cbase >= from then begin
                put_ptr buf i 0;
                cleared := true
              end
            end
          done;
          if !cleared && base < from then
            match meta_write t Indirect b buf with
            | Ok () -> ()
            | Error _ -> incr errors);
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
  (* Every empty group's bitmaps and inode table are the zero block:
     hash it once. *)
  let zero_digest = lazy (Sha1.to_raw (Sha1.digest zero)) in
  let note_cksum b data =
    if profile.Profile.meta_checksum || profile.Profile.data_checksum then
      Hashtbl.replace cksums b
        (if data == zero then Lazy.force zero_digest
         else Sha1.to_raw (Sha1.digest data))
  in
  let wr_meta b data =
    note_cksum b data;
    let* () = wr b data in
    if profile.Profile.meta_replica then
      match Layout.replica_of lay b with Some r -> wr r data | None -> Ok ()
    else Ok ()
  in
  (* Every group's empty bitmaps and inode table, replicas included,
     already read as the zero block, so mkfs writes none of them: only
     the checksum table (Mc, Dc) needs their entries, so later reads can
     verify them. Group 0's blocks get real content just below. *)
  for g = 0 to lay.Layout.ngroups - 1 do
    note_cksum (Layout.bitmap_block lay g) zero;
    note_cksum (Layout.ibitmap_block lay g) zero;
    for i = 0 to lay.Layout.itable_blocks - 1 do
      note_cksum (Layout.itable_block lay g + i) zero
    done
  done;
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
  (* Remaining groups: bitmaps stay the zero blocks they read as. *)
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
  Jrec.encode_jsuper Jrec.jbd
    { Jrec.sequence = 1; start = lay.Layout.journal_start + 1 }
    jb;
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
                  match Jrec.decode_jsuper Jrec.jbd scratch with
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
  Jrnl.recover (policy_of_profile profile) ~geo:(Layout.journal_geo lay) ~dev
    ~klog ?jsb_fallback ?refresh_replica ()

(* Every block the mount reads is decoded and dropped, and the one it
   writes goes to the device, which copies it, so one arena scratch
   block serves the superblock candidates, the group descriptors and
   the dirty superblock, and goes back when the mount returns. *)
let mount_impl profile dev =
  Arena.scratch (Arena.block dev.Dev.block_size) @@ fun scratch ->
  let klog = Klog.create ~clock:dev.Dev.now () in
  (* Read and validate the superblock; ixt3 falls back to the copies. *)
  let read_sb () =
    let try_block b =
      match dev.Dev.read_into b scratch with
      | Error _ -> Error Errno.EIO
      | Ok () -> (
          match Sb.decode scratch with Ok sb -> Ok sb | Error e -> Error e)
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
    (* Group descriptors, decoded into arrays below. *)
    let* gd =
      match dev.Dev.read_into 1 scratch with
      | Ok () -> Ok scratch
      | Error _ -> (
          Klog.error klog "ext3" "cannot read group descriptors";
          if profile.Profile.meta_replica then
            match Layout.replica_of lay 1 with
            | Some r -> (
                match dev.Dev.read_into r scratch with
                | Ok () ->
                    Klog.warn klog "ixt3" "group descriptors recovered from replica";
                    Ok scratch
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
    (* Replica copies do not ride the regular journal: they stream to
       the separate replica log after each commit and reach their fixed
       homes at checkpoint (§6.1); Mr also shadows the journal
       superblock itself. *)
    let jsb_shadow, post_commit =
      if not profile.Profile.meta_replica then (None, None)
      else
        let shadow buf =
          match Layout.replica_of lay lay.Layout.journal_start with
          | Some r -> ignore (dev.Dev.write r buf)
          | None -> ()
        in
        (* Next free slot in the replica log. It wraps: the log is
           advisory, durability comes from the journal and the
           checkpointed replicas, so a failed write is dropped too. *)
        let rlog_head = ref lay.Layout.rlog_start in
        let rlog_end = lay.Layout.rlog_start + lay.Layout.rlog_blocks in
        let stream (b, data) =
          (* Only the replica copies themselves stream to the log. *)
          if b >= lay.Layout.replica_start then begin
            if !rlog_head >= rlog_end then rlog_head := lay.Layout.rlog_start;
            ignore (dev.Dev.write !rlog_head data);
            incr rlog_head
          end
        in
        (Some shadow, Some (List.iter stream))
    in
    let t =
      {
        profile;
        dev;
        lay;
        klog;
        cache;
        free_blocks = !free_blocks;
        free_inodes = !free_inodes;
        gd_bitmap;
        gd_ibitmap;
        gd_itable;
        readonly = false;
        jrnl =
          Jrnl.create ?jsb_shadow ?post_commit
            {
              Jrnl.policy = policy_of_profile profile;
              dev;
              cache;
              klog;
              geo = Layout.journal_geo lay;
              journaled = (fun b -> b < lay.Layout.replica_start);
            }
            ~seq:jseq;
        cksums = Hashtbl.create 256;
      }
    in
    (* Mark the volume dirty. Stock ext3 ignores a failure here too. *)
    Bytes.fill scratch 0 lay.Layout.block_size '\000';
    Sb.encode
      { sb with Sb.state = Sb.Dirty; mount_count = sb.Sb.mount_count + 1 }
      scratch;
    (match dev.Dev.write 0 scratch with
    | Ok () -> ()
    | Error _ ->
        if profile.Profile.bugs_fixed then begin
          Klog.error klog "ext3" "superblock write failed at mount";
          t.readonly <- true
        end);
    Ok t
  end

(* ------------------------------------------------------------------ *)
(* Group descriptors, sync and unmount                                 *)
(* ------------------------------------------------------------------ *)

(* Update group-descriptor free counts on disk lazily: we serialize the
   in-memory values wholesale whenever allocation state changed. *)
let flush_gd t =
  let gd = zero_block t in
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

(* fsync forces the running transaction into the journal (durable but
   not yet checkpointed); sync additionally checkpoints everything to
   its home location, like a full flush of kjournald + pdflush. The
   distinction matters to fault injection: checkpoint writes are where
   stock ext3 loses write errors. *)
let sync t =
  let* () = commit t in
  checkpoint t;
  if Jrnl.aborted t.jrnl then Error Errno.EROFS else Ok ()

let unmount_volume t =
  let* () = commit t in
  checkpoint t;
  if Jrnl.aborted t.jrnl then Error Errno.EROFS
  else begin
    (* Write back a clean superblock (and, for ixt3+Mr, refresh the
       per-group copies — stock ext3 famously never does, §5.1). The
       device copies what it is handed, so the block is arena scratch. *)
    let bs = bsize t in
    Arena.scratch (arena t) @@ fun sbuf ->
    Bytes.fill sbuf 0 bs '\000';
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
        if t.profile.Profile.bugs_fixed then begin
          Klog.error t.klog "ext3" "superblock write failed at unmount";
          Jrnl.abort t.jrnl "superblock write"
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

(* The mount ends here whatever unmount returns, so the cache's buffers
   go back to the arena last of all. *)
let unmount t =
  let r = unmount_volume t in
  Bcache.release t.cache;
  r

(* ------------------------------------------------------------------ *)
(* The store under the shared op layer                                 *)
(* ------------------------------------------------------------------ *)

(* [Posix.Make] runs every op; ext3 keeps its inodes, directory blocks
   and the failure policy of its own code. *)
module Store = struct
  type t = state
  type node = Inode.t
  type dir = int * Inode.t

  let block_types = Classifier.block_types
  let classifier = Classifier.classify
  let corrupt_field = Classifier.corrupt_field
  let unmount = unmount
  let sync = sync
  let fsync = commit

  let statfs t =
    {
      Fs.f_blocks = Layout.total_data_blocks t.lay;
      f_bfree = t.free_blocks;
      f_files = Layout.total_inodes t.lay;
      f_ffree = t.free_inodes;
      f_bsize = bsize t;
    }

  let dev t = t.dev
  let klog t = t.klog
  let is_readonly = readonly
  let root = Layout.root_ino
  let read = read_inode
  let write = write_inode

  let attr (i : Inode.t) =
    {
      Posix.kind =
        (match i.Inode.kind with
        | Inode.Free -> None
        | Inode.Regular -> Some Fs.Regular
        | Inode.Directory -> Some Fs.Directory
        | Inode.Symlink -> Some Fs.Symlink);
      links = i.Inode.links;
      perms = i.Inode.perms;
      uid = i.Inode.uid;
      gid = i.Inode.gid;
      size = i.Inode.size;
      atime = i.Inode.atime;
      mtime = i.Inode.mtime;
      ctime = i.Inode.ctime;
      target = i.Inode.symlink_target;
    }

  let with_attr (i : Inode.t) (a : Posix.attr) =
    {
      i with
      Inode.kind =
        (match a.Posix.kind with
        | None -> Inode.Free
        | Some Fs.Regular -> Inode.Regular
        | Some Fs.Directory -> Inode.Directory
        | Some Fs.Symlink -> Inode.Symlink);
      links = a.Posix.links;
      perms = a.Posix.perms;
      uid = a.Posix.uid;
      gid = a.Posix.gid;
      size = a.Posix.size;
      atime = a.Posix.atime;
      mtime = a.Posix.mtime;
      ctime = a.Posix.ctime;
      symlink_target = a.Posix.target;
    }

  (* A parent named by a path is read and checked to be a directory
     before its blocks are: link, rename and removal under anything
     else fail with ENOTDIR. *)
  let open_dir t ino = function
    | Some i -> Ok (ino, i)
    | None ->
        let* i = read_inode t ino in
        if i.Inode.kind = Inode.Directory then Ok (ino, i) else Error Errno.ENOTDIR

  let entries t (_, i) =
    let* blocks = dir_blocks t i in
    Ok (List.concat_map (fun (_, _, es) -> es) blocks)

  let add_entry t (dino, dinode) name ino = dir_add_entry t dino dinode name ino
  let remove_entry t (_, dinode) name = dir_remove_entry t dinode name

  (* [".."] lives in the directory's first block. *)
  let reparent t _ i parent =
    let* blocks = dir_blocks t i in
    match blocks with
    | (_, b, entries) :: _ ->
        let buf = zero_block t in
        ignore
          (Dirent.encode buf
             (List.map (fun (n, e) -> if n = ".." then (n, parent) else (n, e)) entries));
        meta_write t Dir b buf
    | [] -> Ok ()

  let alloc t ~parent = alloc_inode t ~goal_group:(Layout.group_of_inode t.lay parent)

  let create t ino ~parent (a : Posix.attr) =
    let node = with_attr (Inode.empty t.lay) a in
    let* node =
      if a.Posix.kind <> Some Fs.Directory then Ok node
      else begin
        let* b, node, _ = bmap_alloc t ino node 0 in
        let buf = zero_block t in
        ignore (Dirent.encode buf [ (".", ino); ("..", parent) ]);
        let* () = meta_write t Dir b buf in
        Ok { node with Inode.size = bsize t }
      end
    in
    write_inode t ino node

  (* Stock ext3 leaks what a failed read hides on the delete path and
     says nothing; the fixed profile reports it once the parent is
     updated. *)
  let destroy t ino i =
    let i', errors = free_file_from t i ~from:0 in
    let* () = write_inode t ino { i' with Inode.kind = Inode.Free; links = 0 } in
    let* () = free_inode t ino in
    Ok
      (fun () ->
        if errors > 0 && t.profile.Profile.bugs_fixed then begin
          Klog.error t.klog "ext3" "read failures while freeing inode %d" ino;
          Error Errno.EIO
        end
        else Ok ())

  let write_super _ = Ok ()
  let inline _ _ = Ok None
  let read_block t _ i fblock = data_read_block t i fblock

  let write_data t ino i0 ~off data =
    let bs = bsize t in
    let inode = ref i0 in
    let* () =
      Posix.each_block ~bs ~off ~len:(Bytes.length data) (fun fblock boff pos n ->
          let* buf =
            Posix.patch ~bs data ~boff ~pos ~n (fun () ->
                owned t (data_read_block t !inode fblock))
          in
          let* inode' = data_write_block t ino !inode fblock buf in
          inode := inode';
          Ok ())
    in
    Ok !inode

  (* The read failures are logged once the inode is written; stock
     ext3 then swallows them: truncate "fails silently". *)
  let truncate t ino i size =
    let bs = bsize t in
    if size > Inode.max_file_blocks t.lay * bs then Error Errno.EFBIG
    else begin
      let i', errors = free_file_from t i ~from:((size + bs - 1) / bs) in
      (* Shrinking into the middle of a block: its tail must read as
         zeroes if the file later grows again. *)
      let* i' =
        if size >= i.Inode.size || size mod bs = 0 then Ok i'
        else
          let fblock = size / bs in
          let* b = bmap t i' fblock in
          if b = 0 then Ok i'
          else
            let* old = owned t (data_read_block t i' fblock) in
            Bytes.fill old (size mod bs) (bs - (size mod bs)) '\000';
            data_write_block t ino i' fblock old
      in
      Ok
        ( i',
          fun () ->
            if errors = 0 then Ok ()
            else begin
              Klog.error t.klog "ext3" "%d read failures while truncating" errors;
              if t.profile.Profile.bugs_fixed then Error Errno.EIO else Ok ()
            end )
    end

  (* A mutating op checks for a read-only volume before it reads a
     block, then folds the group descriptors into the running
     transaction. Commit happens on fsync/sync or journal pressure, as
     on the real system. *)
  let txn t op =
    if readonly t then Error Errno.EROFS
    else
      let* r = op () in
      let* () = flush_gd t in
      Ok r

  let walk_free t ~child ino =
    if child then Klog.error t.klog "ext3" "directory entry references free inode %d" ino
    else Klog.error t.klog "ext3" "path walk hit free inode %d" ino

  (* The paper's inode sanity check: open validates the size field. *)
  let open_check t ino (i : Inode.t) =
    if i.Inode.kind = Inode.Free then begin
      Klog.error t.klog "ext3" "open of free inode %d" ino;
      Error Errno.EIO
    end
    else if i.Inode.size > Inode.max_file_blocks t.lay * bsize t then begin
      Klog.error t.klog "ext3" "inode %d has impossible size %d" ino i.Inode.size;
      Error Errno.EUCLEAN
    end
    else Ok ()

  (* The linkcount bug: stock ext3 decrements without checking, and a
     corrupted zero count takes the kernel down (§5.1). *)
  let zero_links t ino =
    if t.profile.Profile.bugs_fixed then begin
      Klog.error t.klog "ext3" "inode %d has zero link count" ino;
      Error Errno.EUCLEAN
    end
    else Klog.panic t.klog "ext3" "kernel BUG: deleting inode %d with links_count=0" ino

  (* A file rename replaces is freed in place, its read errors
     dropped, with no parent's times touched. *)
  let rename_frees = true
end

let layout_of_dev dev =
  Layout.compute ~block_size:dev.Dev.block_size ~num_blocks:dev.Dev.num_blocks

let brand profile =
  let module S = struct
    include Store

    let fs_name = profile.Profile.name
    let mkfs = mkfs_impl profile
    let mount = mount_impl profile
  end in
  Fs.Brand (module Posix.Make (S))

let std = brand Profile.ext3
let ixt3 = brand Profile.ixt3
