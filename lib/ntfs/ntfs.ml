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

(* ---- layout ---------------------------------------------------------- *)

let boot_block = 0
let mft_bitmap_block = 1
let volume_bitmap_block = 2
let logfile_start = 3
let logfile_len = 32
let mft_start = logfile_start + logfile_len
let mft_blocks = 64
let first_data = mft_start + mft_blocks

let boot_magic = 0x4E544653 (* "NTFS" *)
let file_magic = 0x46494C45 (* "FILE" *)
let indx_magic = 0x494E4458 (* "INDX" *)
let index_entry_cap = 500

let root_ino = 2
let record_size = 1024
let records_per_block = 4
let data_runs = 48

(* Retry budgets (§5.4). *)
let read_attempts = 7
let data_write_attempts = 3
let mft_write_attempts = 2

(* ---- MFT record codec ------------------------------------------------ *)

type record = {
  kind : Fs.kind option;
  links : int;
  perms : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
  runs : int array; (* length data_runs *)
  target : string;
}

let free_record =
  {
    kind = None;
    links = 0;
    perms = 0;
    size = 0;
    atime = 0;
    mtime = 0;
    ctime = 0;
    runs = Array.make data_runs 0;
    target = "";
  }

let encode_record rec_ buf off =
  Bytes.fill buf off record_size '\000';
  let w = Codec.writer ~pos:off buf in
  Codec.put_u32 w file_magic;
  Codec.put_u8 w (Posix.kind_code rec_.kind);
  Codec.put_u8 w 0;
  Codec.put_u16 w rec_.links;
  Codec.put_u16 w rec_.perms;
  Codec.put_u16 w 0;
  Codec.put_u32 w rec_.size;
  Codec.put_u32 w rec_.atime;
  Codec.put_u32 w rec_.mtime;
  Codec.put_u32 w rec_.ctime;
  Array.iter (Codec.put_u32 w) rec_.runs;
  let target =
    if String.length rec_.target > 64 then String.sub rec_.target 0 64
    else rec_.target
  in
  Codec.put_u16 w (String.length target);
  Codec.put_string w target

(* MFT records carry a magic; NTFS checks it on every use (strong
   sanity, §5.4). [None] = failed check. A zeroed (never used) record
   decodes as an explicit free record. *)
let decode_record buf off =
  try
    let r = Codec.reader ~pos:off buf in
    let magic = Codec.get_u32 r in
    if magic = 0 then Some free_record
    else if magic <> file_magic then None
    else
      let kind = Posix.kind_of_code (Codec.get_u8 r) in
      let _ = Codec.get_u8 r in
      let links = Codec.get_u16 r in
      let perms = Codec.get_u16 r in
      let _ = Codec.get_u16 r in
      let size = Codec.get_u32 r in
      let atime = Codec.get_u32 r in
      let mtime = Codec.get_u32 r in
      let ctime = Codec.get_u32 r in
      let runs = Array.init data_runs (fun _ -> Codec.get_u32 r) in
      let tlen = Codec.get_u16 r in
      let target =
        if tlen <= 64 && tlen <= Codec.remaining r then Codec.get_string r tlen
        else ""
      in
      Some { kind; links; perms; size; atime; mtime; ctime; runs; target }
  with Codec.Decode_error _ -> None

(* ---- state ------------------------------------------------------------ *)

type state = {
  dev : Dev.t;
  bs : int;
  klog : Klog.t;
  cache : Bcache.t;
  num_blocks : int;
  txn : (int, bytes) Hashtbl.t;
  mutable txn_order : int list;
  mutable lpos : int; (* next free logfile block *)
  mutable lseq : int;
  mutable free_blocks : int;
  mutable readonly : bool;
}

let total_records = mft_blocks * records_per_block

(* ---- retried I/O ------------------------------------------------------ *)

(* NTFS is the persistent one: reads are attempted up to seven times.
   Reads borrow: they return the transaction's image or the cache's
   buffer itself, read-only. A transaction image stays valid for as long
   as its reader holds it, and a cache buffer until the mount ends:
   [meta_write] stages the caller's page itself, which a later stage
   replaces and a checkpoint drops, and nothing writes a staged image in
   place or hands it to the arena. Every site that modifies what it read
   takes a private copy through [owned]. Holes read as the shared
   {!Arena.zeros} block. *)
let retried_read t b =
  let rec attempt n =
    match
      (match Hashtbl.find_opt t.txn b with
      | Some d -> Ok d
      | None -> (
          match Bcache.borrow t.cache b with
          | Ok d -> Ok d
          | Error _ -> Error Errno.EIO))
    with
    | Ok d -> Ok d
    | Error e ->
        if n < read_attempts then attempt (n + 1)
        else begin
          Klog.error t.klog "ntfs" "read of block %d failed after %d attempts" b n;
          Error e
        end
  in
  attempt 1

let owned r = Result.map Bytes.copy r

(* Writes are retried too, with per-type budgets; after that the error
   code is recorded in the log and — for data — never used again. *)
let retried_write t b data ~attempts ~what =
  let rec attempt n =
    match Bcache.write t.cache b data with
    | Ok () -> Ok ()
    | Error e ->
        if n < attempts then attempt (n + 1)
        else begin
          Klog.error t.klog "ntfs" "%s write to block %d failed after %d attempts"
            what b n;
          Error e
        end
  in
  attempt 1

(* The transaction adopts [data]: every caller passes a fresh page (a
   copy, or a block it encoded) and never touches it again. *)
let meta_write t b data =
  if t.readonly then Error Errno.EROFS
  else begin
    if not (Hashtbl.mem t.txn b) then t.txn_order <- b :: t.txn_order;
    Hashtbl.replace t.txn b data;
    Ok ()
  end

(* The logfile: a compact block journal, flushed on sync/fsync. All its
   blocks present as the single "logfile" type. Its descriptor and
   commit records are the journal engine's, in ntfs's magic numbers; it
   has no revoke blocks and no superblock, since the restart area is a
   zeroed block at the head of the log. *)
let log_format =
  {
    Jrec.jsuper_magic = 0;
    desc_magic = 0x4C4F4744;
    commit_magic = 0x4C4F4743;
    revoke_magic = None;
  }

let log_block t encode =
  let buf = Bytes.create t.bs in
  encode log_format buf;
  buf

let checkpoint t =
  List.iter
    (fun b ->
      match Hashtbl.find_opt t.txn b with
      | None -> ()
      | Some data -> (
          match
            retried_write t b data ~attempts:mft_write_attempts ~what:"metadata"
          with
          | Ok () -> ()
          | Error _ -> t.readonly <- true))
    (List.sort compare (List.rev t.txn_order));
  Hashtbl.reset t.txn;
  t.txn_order <- [];
  (* The home writes must be durable before the restart area erases the
     transaction: a crash persisting the cleared log ahead of an
     in-flight home write would have no redo path. A crash the other way
     round only re-replays the transaction, which is idempotent. *)
  ignore (t.dev.Dev.sync ());
  ignore
    (retried_write t logfile_start (Arena.zeros t.bs)
       ~attempts:mft_write_attempts ~what:"logfile restart");
  t.lpos <- logfile_start

let commit t =
  if Hashtbl.length t.txn = 0 then Ok ()
  else begin
    let blocks = List.rev t.txn_order in
    let needed = 2 + List.length blocks in
    if t.lpos + needed > logfile_start + logfile_len then begin
      checkpoint t;
      Ok ()
    end
    else begin
      let seq = t.lseq in
      ignore
        (retried_write t t.lpos
           (log_block t (fun fmt ->
                Jrec.encode_desc fmt { Jrec.seq; tags = blocks }))
           ~attempts:mft_write_attempts ~what:"logfile");
      let pos = ref (t.lpos + 1) in
      List.iter
        (fun b ->
          (match Hashtbl.find_opt t.txn b with
          | Some data ->
              ignore
                (retried_write t !pos data ~attempts:mft_write_attempts
                   ~what:"logfile")
          | None -> ());
          incr pos)
        blocks;
      ignore (t.dev.Dev.sync ());
      ignore
        (retried_write t !pos
           (log_block t (fun fmt ->
                Jrec.encode_commit fmt { Jrec.cseq = seq; checksum = None }))
           ~attempts:mft_write_attempts ~what:"logfile");
      ignore (t.dev.Dev.sync ());
      t.lpos <- !pos + 1;
      t.lseq <- seq + 1;
      (* NTFS's log is undo/redo against already-written metadata: our
         model writes metadata home at checkpoint. *)
      checkpoint t;
      Ok ()
    end
  end

(* ---- allocation -------------------------------------------------------- *)

let alloc_block t =
  let* buf = retried_read t volume_bitmap_block in
  match Bitmap.find_clear ~from:first_data buf (min (t.bs * 8) t.num_blocks) with
  | None -> Error Errno.ENOSPC
  | Some b ->
      let buf = Bytes.copy buf in
      Bitmap.set buf b true;
      let* () = meta_write t volume_bitmap_block buf in
      t.free_blocks <- t.free_blocks - 1;
      Ok b

let free_block t b =
  if b < first_data || b >= t.num_blocks then Ok ()
  else
    let* buf = retried_read t volume_bitmap_block in
    if Bitmap.get buf b then begin
      (* The freed block's staged image goes with it, or its next owner
         would read the old owner's bytes and the checkpoint would write
         them over the new owner's. *)
      if Hashtbl.mem t.txn b then begin
        Hashtbl.remove t.txn b;
        t.txn_order <- List.filter (( <> ) b) t.txn_order
      end;
      let buf = Bytes.copy buf in
      Bitmap.set buf b false;
      let* () = meta_write t volume_bitmap_block buf in
      t.free_blocks <- t.free_blocks + 1;
      Ok ()
    end
    else Ok ()

let alloc_record t =
  let* buf = retried_read t mft_bitmap_block in
  match Bitmap.find_clear buf total_records with
  | None -> Error Errno.ENOSPC
  | Some i ->
      let buf = Bytes.copy buf in
      Bitmap.set buf i true;
      let* () = meta_write t mft_bitmap_block buf in
      Ok (i + 1)

let free_record_slot t ino =
  let* buf = owned (retried_read t mft_bitmap_block) in
  Bitmap.set buf (ino - 1) false;
  meta_write t mft_bitmap_block buf

(* ---- MFT access -------------------------------------------------------- *)

let record_location ino =
  (mft_start + ((ino - 1) / records_per_block),
   (ino - 1) mod records_per_block * record_size)

let read_record t ino =
  if ino < 1 || ino > total_records then Error Errno.EIO
  else
    let blk, off = record_location ino in
    let* buf = retried_read t blk in
    match decode_record buf off with
    | Some r -> Ok r
    | None ->
        (* Strong sanity: a record without its magic is corruption. *)
        Klog.error t.klog "ntfs" "MFT record %d failed its magic check" ino;
        Error Errno.EUCLEAN

let write_record t ino r =
  let blk, off = record_location ino in
  let* buf = owned (retried_read t blk) in
  encode_record r buf off;
  meta_write t blk buf

(* ---- data -------------------------------------------------------------- *)

let data_read_block t r fblock =
  if fblock >= data_runs then Error Errno.EFBIG
  else begin
    let b = r.runs.(fblock) in
    if b = 0 then Ok (Arena.zeros t.bs)
    else if b >= t.num_blocks then begin
      Klog.error t.klog "ntfs" "impossible cluster %d" b;
      Error Errno.EIO
    end
    else retried_read t b
  end

let data_write_block t ino r fblock data =
  if fblock >= data_runs then Error Errno.EFBIG
  else begin
    let* r =
      if r.runs.(fblock) <> 0 then Ok r
      else
        let* b = alloc_block t in
        let runs = Array.copy r.runs in
        runs.(fblock) <- b;
        let r = { r with runs } in
        let* () = write_record t ino r in
        Ok r
    in
    let b = r.runs.(fblock) in
    (* NOTE: no range check on the cluster pointer here — the missed
       sanity check the paper observed: a corrupted pointer makes this
       write land on whatever block it names (§5.4). *)
    (match retried_write t b data ~attempts:data_write_attempts ~what:"data" with
    | Ok () -> ()
    | Error _ -> () (* recorded in the log, never used *));
    Ok r
  end

(* ---- directories -------------------------------------------------------- *)

let dir_blocks t r =
  let n = (r.size + t.bs - 1) / t.bs in
  let rec go i acc =
    if i >= n || i >= data_runs then Ok (List.rev acc)
    else begin
      let b = r.runs.(i) in
      if b = 0 || b >= t.num_blocks then go (i + 1) acc
      else
        let* buf = retried_read t b in
        match Posix.decode_entries ~magic:indx_magic ~cap:index_entry_cap buf with
        | Some entries -> go (i + 1) ((i, b, entries) :: acc)
        | None ->
            Klog.error t.klog "ntfs" "index block %d failed its magic check" b;
            Error Errno.EUCLEAN
    end
  in
  go 0 []

let dir_entries t r =
  let* blocks = dir_blocks t r in
  Ok (List.concat_map (fun (_, _, es) -> es) blocks)

let dir_add t dino dr name ino =
  let* blocks = dir_blocks t dr in
  let rec place = function
    | [] ->
        let n = (dr.size + t.bs - 1) / t.bs in
        let* dr', _b =
          let* b = alloc_block t in
          let runs = Array.copy dr.runs in
          runs.(n) <- b;
          let dr' = { dr with runs; size = (n + 1) * t.bs } in
          let* () = write_record t dino dr' in
          Ok (dr', b)
        in
        let buf = Bytes.make t.bs '\000' in
        Posix.encode_entries ~magic:indx_magic [ (name, ino) ] buf;
        meta_write t dr'.runs.(n) buf
    | (_, b, entries) :: rest ->
        if List.length entries >= 120 then place rest
        else begin
          let buf = Bytes.make t.bs '\000' in
          Posix.encode_entries ~magic:indx_magic (entries @ [ (name, ino) ]) buf;
          meta_write t b buf
        end
  in
  place blocks

let dir_remove t dr name =
  let* blocks = dir_blocks t dr in
  let rec go = function
    | [] -> Error Errno.ENOENT
    | (_, b, entries) :: rest ->
        if List.mem_assoc name entries then begin
          let buf = Bytes.make t.bs '\000' in
          Posix.encode_entries ~magic:indx_magic (List.remove_assoc name entries) buf;
          meta_write t b buf
        end
        else go rest
  in
  go blocks

(* ---- mkfs / mount ---------------------------------------------------------- *)

let mkfs_impl dev =
  let bs = dev.Dev.block_size in
  let num_blocks = dev.Dev.num_blocks in
  let wr b data =
    match dev.Dev.write b data with Ok () -> Ok () | Error _ -> Error Errno.EIO
  in
  let boot = Bytes.make bs '\000' in
  let w = Codec.writer boot in
  Codec.put_u32 w boot_magic;
  Codec.put_u32 w num_blocks;
  let* () = wr boot_block boot in
  (* Root directory. *)
  let root_block = first_data in
  let idx = Bytes.make bs '\000' in
  Posix.encode_entries ~magic:indx_magic [ (".", root_ino); ("..", root_ino) ] idx;
  let* () = wr root_block idx in
  let mft = Bytes.make bs '\000' in
  let root =
    {
      free_record with
      kind = Some Fs.Directory;
      links = 2;
      perms = 0o755;
      size = bs;
      runs = (let a = Array.make data_runs 0 in a.(0) <- root_block; a);
    }
  in
  encode_record root mft ((root_ino - 1) * record_size);
  (* Record 1 is reserved ($MFT itself, loosely). *)
  encode_record { free_record with kind = Some Fs.Regular; links = 1 } mft 0;
  let* () = wr mft_start mft in
  let mb = Bytes.make bs '\000' in
  Bitmap.set mb 0 true;
  Bitmap.set mb 1 true;
  let* () = wr mft_bitmap_block mb in
  let vb = Bytes.make bs '\000' in
  for b = 0 to root_block do
    Bitmap.set vb b true
  done;
  let* () = wr volume_bitmap_block vb in
  match dev.Dev.sync () with Ok () -> Ok () | Error _ -> Error Errno.EIO

(* $LogFile redo pass. NTFS replays committed log records at mount, so a
   crash that persisted a transaction's commit record while its home
   writes were still in flight loses nothing. The scan is the journal
   engine's, from the start of the logfile and with no required first
   sequence (checkpoints rewind the write position there, so the latest
   transaction always leads). One scratch block serves the descriptor
   and commit reads, which are decoded and dropped. The log copies are
   read into arena buffers, which go back to the arena once replay has
   written them home: every device layer copies the buffer a write
   hands it. *)
let recover_log dev klog =
  let arena = Arena.block dev.Dev.block_size in
  let txns, _ =
    Arena.scratch arena @@ fun scratch ->
    Jrnl.scan_device log_format ~dev ~scratch ~arena
      ~jend:(logfile_start + logfile_len) ~start:logfile_start ~seq:None
  in
  List.iter
    (fun c ->
      List.iter
        (fun (home, copy) ->
          if home < dev.Dev.num_blocks then
            match dev.Dev.write home copy with
            | Ok () -> ()
            | Error _ -> Klog.error klog "ntfs" "log replay write failed")
        c.Jrnl.blocks)
    txns;
  List.iter
    (fun c -> List.iter (fun (_, copy) -> Arena.put arena copy) c.Jrnl.blocks)
    txns;
  if txns <> [] then begin
    Klog.info klog "ntfs" "logfile: replayed %d transactions" (List.length txns);
    ignore (dev.Dev.sync ())
  end

let mount_impl dev =
  let klog = Klog.create ~clock:dev.Dev.now () in
  recover_log dev klog;
  (* Boot file then the first MFT block: corrupt metadata means an
     unmountable volume (§5.4). Reads get the NTFS retry treatment. Both
     blocks are decoded and dropped, so they share one arena scratch
     block, which goes back when the mount returns. *)
  Arena.scratch (Arena.block dev.Dev.block_size) @@ fun scratch ->
  let retried b =
    let rec attempt n =
      match dev.Dev.read_into b scratch with
      | Ok () -> Ok scratch
      | Error _ ->
          if n < read_attempts then attempt (n + 1)
          else begin
            Klog.error klog "ntfs" "read of block %d failed after %d attempts" b n;
            Error Errno.EIO
          end
    in
    attempt 1
  in
  let* boot = retried boot_block in
  let* num_blocks =
    try
      let r = Codec.reader boot in
      if Codec.get_u32 r <> boot_magic then begin
        Klog.error klog "ntfs" "boot file corrupt: volume unmountable";
        Error Errno.EUCLEAN
      end
      else Ok (Codec.get_u32 r)
    with Codec.Decode_error _ -> Error Errno.EUCLEAN
  in
  let* mft0 = retried mft_start in
  let* () =
    match decode_record mft0 ((root_ino - 1) * record_size) with
    | Some _ -> Ok ()
    | None ->
        Klog.error klog "ntfs" "root MFT record corrupt: volume unmountable";
        Error Errno.EUCLEAN
  in
  let free_blocks =
    (* Recomputed lazily; a rough figure is fine for statfs. *)
    num_blocks - first_data
  in
  Ok
    {
      dev;
      bs = dev.Dev.block_size;
      klog;
      cache = Bcache.create ~capacity:512 dev;
      num_blocks;
      txn = Hashtbl.create 32;
      txn_order = [];
      lpos = logfile_start;
      lseq = 1;
      free_blocks;
      readonly = false;
    }

(* ---- classifier ------------------------------------------------------------- *)

let block_types =
  [ "mft"; "dir"; "bitmap"; "mft-bitmap"; "logfile"; "data"; "boot" ]

let classify raw =
  let read b = try Some (raw b) with _ -> None in
  let num_blocks =
    match read boot_block with
    | Some buf -> (
        try
          let r = Codec.reader buf in
          if Codec.get_u32 r = boot_magic then Codec.get_u32 r else 0
        with Codec.Decode_error _ -> 0)
    | None -> 0
  in
  if num_blocks = 0 then fun b -> if b = boot_block then "boot" else "?"
  else begin
    let labels = Hashtbl.create 64 in
    let mark b l =
      if b >= first_data && b < num_blocks then Hashtbl.replace labels b l
    in
    for ino = 1 to total_records do
      let blk, off = record_location ino in
      match read blk with
      | None -> ()
      | Some buf -> (
          match decode_record buf off with
          | Some r -> (
              match r.kind with
              | Some Fs.Directory -> Array.iter (fun b -> if b > 0 then mark b "dir") r.runs
              | Some Fs.Regular -> Array.iter (fun b -> if b > 0 then mark b "data") r.runs
              | Some Fs.Symlink | None -> ())
          | None -> ())
    done;
    fun b ->
      if b = boot_block then "boot"
      else if b = mft_bitmap_block then "mft-bitmap"
      else if b = volume_bitmap_block then "bitmap"
      else if b >= logfile_start && b < logfile_start + logfile_len then "logfile"
      else if b >= mft_start && b < mft_start + mft_blocks then "mft"
      else match Hashtbl.find_opt labels b with Some l -> l | None -> "?"
  end

let corrupt_field ty =
  match ty with
  | "boot" -> Some (fun buf -> Codec.write_u32 buf 0 0xBAD)
  | "mft" ->
      (* The missed check: plausible records whose cluster pointers aim
         at system blocks. *)
      Some
        (fun buf ->
          let per = Bytes.length buf / record_size in
          for i = 0 to per - 1 do
            let off = i * record_size in
            if Codec.read_u32 buf off = file_magic then
              (* the first run pointer: magic(4) kind(1) pad(1) links(2)
                 perms(2) pad(2) size(4) atime(4) mtime(4) ctime(4) = 28 *)
              Codec.write_u32 buf (off + 28) volume_bitmap_block
          done)
  | "dir" -> Some (fun buf -> Codec.write_u32 buf 0 0xBAD)
  | "bitmap" | "mft-bitmap" ->
      Some (fun buf -> Bytes.fill buf 0 (Bytes.length buf) '\xFF')
  | _ -> None

(* ---- store and brand ---------------------------------------------------------- *)

module Store = struct
  type t = state
  type node = record
  type dir = int * record

  let fs_name = "ntfs"
  let block_types = block_types
  let classifier = classify
  let corrupt_field = corrupt_field
  let mkfs = mkfs_impl
  let mount = mount_impl
  let sync = commit
  let fsync = commit

  (* The mount ends here whatever unmount returns, so the cache's
     buffers go back to the arena last of all. *)
  let unmount t =
    let r =
      let* () = commit t in
      checkpoint t;
      ignore (t.dev.Dev.sync ());
      Ok ()
    in
    Bcache.release t.cache;
    r

  let statfs t =
    {
      Fs.f_blocks = t.num_blocks - first_data;
      f_bfree = t.free_blocks;
      f_files = total_records;
      f_ffree = total_records;
      f_bsize = t.bs;
    }

  let dev t = t.dev
  let klog t = t.klog
  let is_readonly t = t.readonly
  let root = root_ino
  let read = read_record
  let write = write_record

  (* An MFT record keeps no owner: it reads as root's, and chown
     changes only its ctime. *)
  let attr (r : record) =
    {
      Posix.kind = r.kind;
      links = r.links;
      perms = r.perms;
      uid = 0;
      gid = 0;
      size = r.size;
      atime = r.atime;
      mtime = r.mtime;
      ctime = r.ctime;
      target = r.target;
    }

  let with_attr (r : record) (a : Posix.attr) =
    {
      r with
      kind = a.kind;
      links = a.links;
      perms = a.perms;
      size = a.size;
      atime = a.atime;
      mtime = a.mtime;
      ctime = a.ctime;
      target = a.target;
    }

  let open_dir t ino = function
    | Some r -> Ok (ino, r)
    | None ->
        let* r = read_record t ino in
        Ok (ino, r)

  let entries t (_, r) = dir_entries t r
  let add_entry t (dino, dr) name ino = dir_add t dino dr name ino
  let remove_entry t (_, dr) name = dir_remove t dr name

  (* [".."] lives in the directory's first index block. *)
  let reparent t _ r parent =
    let* blocks = dir_blocks t r in
    match blocks with
    | (_, b, entries) :: _ ->
        let buf = Bytes.make t.bs '\000' in
        Posix.encode_entries ~magic:indx_magic
          (List.map (fun (n, e) -> if n = ".." then (n, parent) else (n, e)) entries)
          buf;
        meta_write t b buf
    | [] -> Ok ()

  let alloc t ~parent:_ = alloc_record t

  let create t ino ~parent (a : Posix.attr) =
    let node = with_attr free_record a in
    let* node =
      if a.kind <> Some Fs.Directory then Ok node
      else begin
        let* b = alloc_block t in
        let runs = Array.copy node.runs in
        runs.(0) <- b;
        let buf = Bytes.make t.bs '\000' in
        Posix.encode_entries ~magic:indx_magic [ (".", ino); ("..", parent) ] buf;
        let* () = meta_write t b buf in
        Ok { node with runs; size = t.bs }
      end
    in
    write_record t ino node

  (* A run that fails to free leaks, and the unlink reports EIO once
     the parent is updated. *)
  let destroy t ino r =
    let errors = ref 0 in
    Array.iter
      (fun b ->
        if b <> 0 then
          match free_block t b with Ok () -> () | Error _ -> incr errors)
      r.runs;
    let* () = write_record t ino free_record in
    let* () = free_record_slot t ino in
    let late = if !errors > 0 then Error Errno.EIO else Ok () in
    Ok (fun () -> late)

  let write_super _ = Ok ()
  let inline _ _ = Ok None
  let read_block t _ r fblock = data_read_block t r fblock

  let write_data t ino r0 ~off data =
    let r = ref r0 in
    let* () =
      Posix.each_block ~bs:t.bs ~off ~len:(Bytes.length data) (fun fblock boff pos n ->
          let* buf =
            Posix.patch ~bs:t.bs data ~boff ~pos ~n (fun () ->
                owned (data_read_block t !r fblock))
          in
          let* r' = data_write_block t ino !r fblock buf in
          r := r';
          Ok ())
    in
    Ok !r

  let truncate t _ r size =
    if size > data_runs * t.bs then Error Errno.EFBIG
    else begin
      let keep = (size + t.bs - 1) / t.bs in
      let errors = ref 0 in
      let runs = Array.copy r.runs in
      Array.iteri
        (fun i b ->
          if i >= keep && b <> 0 then begin
            (match free_block t b with Ok () -> () | Error _ -> incr errors);
            runs.(i) <- 0
          end)
        runs;
      (* Zero the tail of a partially kept cluster. *)
      (if size < r.size && size mod t.bs <> 0 then begin
         let b = runs.(size / t.bs) in
         if b <> 0 then
           match owned (retried_read t b) with
           | Ok old ->
               Bytes.fill old (size mod t.bs) (t.bs - (size mod t.bs)) '\000';
               ignore (retried_write t b old ~attempts:data_write_attempts ~what:"data")
           | Error _ -> incr errors
       end);
      let late = if !errors > 0 then Error Errno.EIO else Ok () in
      Ok ({ r with runs }, fun () -> late)
    end

  let txn _ op = op ()
  let walk_free _ ~child:_ _ = ()
  let open_check _ _ _ = Ok ()
  let zero_links _ _ = Ok ()
  let rename_frees = false
end

let brand = Fs.Brand (module Posix.Make (Store))
