open Iron_util
module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fs = Iron_vfs.Fs
module Fdtable = Iron_vfs.Fdtable
module Resolver = Iron_vfs.Resolver

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
let log_desc_magic = 0x4C4F4744
let log_commit_magic = 0x4C4F4743

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

let kind_code = function
  | None -> 0
  | Some Fs.Regular -> 1
  | Some Fs.Directory -> 2
  | Some Fs.Symlink -> 3

let kind_of_code = function
  | 1 -> Some Fs.Regular
  | 2 -> Some Fs.Directory
  | 3 -> Some Fs.Symlink
  | _ -> None

let encode_record rec_ buf off =
  Bytes.fill buf off record_size '\000';
  let w = Codec.writer ~pos:off buf in
  Codec.put_u32 w file_magic;
  Codec.put_u8 w (kind_code rec_.kind);
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
      let kind = kind_of_code (Codec.get_u8 r) in
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

(* ---- index (directory) block codec ----------------------------------- *)

let encode_index entries buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w indx_magic;
  Codec.put_u16 w (List.length entries);
  List.iter
    (fun (name, ino) ->
      Codec.put_u32 w ino;
      Codec.put_u16 w (String.length name);
      Codec.put_string w name)
    entries

let decode_index buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> indx_magic then None
    else
      let n = Codec.get_u16 r in
      if n > 500 then None
      else
        let rec go k acc =
          if k = 0 then Some (List.rev acc)
          else
            let ino = Codec.get_u32 r in
            let len = Codec.get_u16 r in
            if len > Codec.remaining r then None
            else
              let name = Codec.get_string r len in
              go (k - 1) ((name, ino) :: acc)
        in
        go n []
  with Codec.Decode_error _ -> None

(* ---- state ------------------------------------------------------------ *)

type fdesc = { fd_ino : int; fd_mode : Fs.open_mode }

type state = {
  dev : Dev.t;
  bs : int;
  klog : Klog.t;
  cache : Bcache.t;
  zeros : bytes; (* read-only, like every borrowed buffer: holes read as it *)
  num_blocks : int;
  txn : (int, bytes) Hashtbl.t;
  mutable txn_order : int list;
  mutable lpos : int; (* next free logfile block *)
  mutable lseq : int;
  mutable free_blocks : int;
  fds : fdesc Fdtable.t;
  mutable cwd : int;
  mutable root : int;
  mutable readonly : bool;
}

let now_seconds t = int_of_float (t.dev.Dev.now () /. 1000.)
let total_records = mft_blocks * records_per_block

(* ---- retried I/O ------------------------------------------------------ *)

(* NTFS is the persistent one: reads are attempted up to seven times.
   Reads borrow: they return the transaction's image or the cache's
   buffer itself, read-only. A transaction image stays valid for as long
   as its reader holds it, just as a cache buffer does: [meta_write]
   stages a fresh copy, which a later stage replaces and a checkpoint
   drops, and nothing writes a staged image in place or hands it to the
   arena. Every site that modifies what it read takes a private copy
   through [owned]. *)
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

let meta_write t b data =
  if t.readonly then Error Errno.EROFS
  else begin
    if not (Hashtbl.mem t.txn b) then t.txn_order <- b :: t.txn_order;
    Hashtbl.replace t.txn b (Bytes.copy data);
    Ok ()
  end

(* The logfile: a compact block journal, flushed on sync/fsync. All its
   blocks present as the single "logfile" type. *)
let encode_log_desc t seq tags =
  let buf = Bytes.make t.bs '\000' in
  let w = Codec.writer buf in
  Codec.put_u32 w log_desc_magic;
  Codec.put_u32 w seq;
  Codec.put_u32 w (List.length tags);
  List.iter (Codec.put_u32 w) tags;
  buf

let encode_log_commit t seq =
  let buf = Bytes.make t.bs '\000' in
  let w = Codec.writer buf in
  Codec.put_u32 w log_commit_magic;
  Codec.put_u32 w seq;
  buf

let decode_log_desc buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> log_desc_magic then None
    else
      let seq = Codec.get_u32 r in
      let count = Codec.get_u32 r in
      if count > (Bytes.length buf - 12) / 4 then None
      else Some (seq, List.init count (fun _ -> Codec.get_u32 r))
  with Codec.Decode_error _ -> None

let decode_log_commit buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> log_commit_magic then None else Some (Codec.get_u32 r)
  with Codec.Decode_error _ -> None

let checkpoint t =
  List.iter
    (fun b ->
      match Hashtbl.find_opt t.txn b with
      | None -> ()
      | Some data -> (
          let attempts =
            if b >= mft_start && b < mft_start + mft_blocks then mft_write_attempts
            else mft_write_attempts
          in
          match retried_write t b data ~attempts ~what:"metadata" with
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
    (retried_write t logfile_start
       (Bytes.make t.bs '\000')
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
        (retried_write t t.lpos (encode_log_desc t seq blocks)
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
        (retried_write t !pos (encode_log_commit t seq)
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

let bit_get buf i = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0

let bit_set buf i on =
  let v = Char.code (Bytes.get buf (i / 8)) in
  let v' = if on then v lor (1 lsl (i mod 8)) else v land lnot (1 lsl (i mod 8)) in
  Bytes.set buf (i / 8) (Char.chr (v' land 0xFF))

let alloc_block t =
  let* buf = retried_read t volume_bitmap_block in
  let limit = min (t.bs * 8) t.num_blocks in
  let rec find i =
    if i >= limit then Error Errno.ENOSPC
    else if (not (bit_get buf i)) && i >= first_data then Ok i
    else find (i + 1)
  in
  let* b = find 0 in
  let buf = Bytes.copy buf in
  bit_set buf b true;
  let* () = meta_write t volume_bitmap_block buf in
  t.free_blocks <- t.free_blocks - 1;
  Ok b

let free_block t b =
  if b < first_data || b >= t.num_blocks then Ok ()
  else
    let* buf = retried_read t volume_bitmap_block in
    if bit_get buf b then begin
      let buf = Bytes.copy buf in
      bit_set buf b false;
      let* () = meta_write t volume_bitmap_block buf in
      t.free_blocks <- t.free_blocks + 1;
      Ok ()
    end
    else Ok ()

let alloc_record t =
  let* buf = retried_read t mft_bitmap_block in
  let rec find i =
    if i >= total_records then Error Errno.ENOSPC
    else if not (bit_get buf i) then Ok i
    else find (i + 1)
  in
  let* i = find 0 in
  let buf = Bytes.copy buf in
  bit_set buf i true;
  let* () = meta_write t mft_bitmap_block buf in
  Ok (i + 1)

let free_record_slot t ino =
  let* buf = owned (retried_read t mft_bitmap_block) in
  bit_set buf (ino - 1) false;
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
    if b = 0 then Ok t.zeros
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
        match decode_index buf with
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
        encode_index [ (name, ino) ] buf;
        meta_write t dr'.runs.(n) buf
    | (_, b, entries) :: rest ->
        if List.length entries >= 120 then place rest
        else begin
          let buf = Bytes.make t.bs '\000' in
          encode_index (entries @ [ (name, ino) ]) buf;
          meta_write t b buf
        end
  in
  place blocks

let dir_remove t _dino dr name =
  let* blocks = dir_blocks t dr in
  let rec go = function
    | [] -> Error Errno.ENOENT
    | (_, b, entries) :: rest ->
        if List.mem_assoc name entries then begin
          let buf = Bytes.make t.bs '\000' in
          encode_index (List.remove_assoc name entries) buf;
          meta_write t b buf
        end
        else go rest
  in
  go blocks

(* ---- resolver ------------------------------------------------------------ *)

let resolver_ops t =
  {
    Resolver.lookup =
      (fun dir name ->
        let* dr = read_record t dir in
        if dr.kind <> Some Fs.Directory then Error Errno.ENOTDIR
        else
          let* es = dir_entries t dr in
          match List.assoc_opt name es with
          | Some i -> Ok i
          | None -> Error Errno.ENOENT);
    kind_of =
      (fun ino ->
        let* r = read_record t ino in
        match r.kind with Some k -> Ok k | None -> Error Errno.EIO);
    readlink_of =
      (fun ino ->
        let* r = read_record t ino in
        Ok r.target);
  }

let resolve t ?follow_last path =
  Resolver.resolve (resolver_ops t) ~root:t.root ~cwd:t.cwd ?follow_last path

let resolve_parent t path =
  Resolver.resolve_parent (resolver_ops t) ~root:t.root ~cwd:t.cwd path

(* ---- mkfs / mount ---------------------------------------------------------- *)

let mkfs_impl dev =
  let bs = dev.Dev.block_size in
  let num_blocks = dev.Dev.num_blocks in
  let wr b data =
    match dev.Dev.write b data with Ok () -> Ok () | Error _ -> Error Errno.EIO
  in
  let zero = Bytes.make bs '\000' in
  let rec zero_all b =
    if b >= num_blocks then Ok ()
    else
      let* () = wr b zero in
      zero_all (b + 1)
  in
  let* () = zero_all 0 in
  let boot = Bytes.make bs '\000' in
  let w = Codec.writer boot in
  Codec.put_u32 w boot_magic;
  Codec.put_u32 w num_blocks;
  let* () = wr boot_block boot in
  (* Root directory. *)
  let root_block = first_data in
  let idx = Bytes.make bs '\000' in
  encode_index [ (".", root_ino); ("..", root_ino) ] idx;
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
  bit_set mb 0 true;
  bit_set mb 1 true;
  let* () = wr mft_bitmap_block mb in
  let vb = Bytes.make bs '\000' in
  for b = 0 to root_block do
    bit_set vb b true
  done;
  let* () = wr volume_bitmap_block vb in
  match dev.Dev.sync () with Ok () -> Ok () | Error _ -> Error Errno.EIO

(* $LogFile redo pass. NTFS replays committed log records at mount, so a
   crash that persisted a transaction's commit record while its home
   writes were still in flight loses nothing. The scan mirrors what
   [commit] lays down — desc, copies, commit — chained by sequence
   number from the start of the logfile (checkpoints rewind the write
   position there, so the latest transaction always leads). *)
let recover_log dev klog =
  let lend = logfile_start + logfile_len in
  (* One scratch block serves the descriptor and commit reads, which are
     decoded and dropped. The log copies are read into arena buffers,
     which go back to the arena once replay has written them home:
     every device layer copies the buffer a write hands it. *)
  let arena = Arena.block dev.Dev.block_size in
  let scratch = Arena.get arena in
  let release copies = List.iter (fun (_, c) -> Arena.put arena c) copies in
  let txns = ref [] in
  let rec scan pos seq =
    if pos < lend then
      match dev.Dev.read_into pos scratch with
      | Error _ -> ()
      | Ok () -> (
          match decode_log_desc scratch with
          | Some (s, tags) when seq < 0 || s = seq -> (
              let count = List.length tags in
              let copies = List.map (fun home -> (home, Arena.get arena)) tags in
              let read i (_, c) = dev.Dev.read_into (pos + 1 + i) c in
              if List.exists Result.is_error (List.mapi read copies) then
                release copies
              else
                match dev.Dev.read_into (pos + 1 + count) scratch with
                | Ok () when decode_log_commit scratch = Some s ->
                    txns := copies :: !txns;
                    scan (pos + 2 + count) (s + 1)
                | Ok () | Error _ -> release copies)
          | Some _ | None -> ())
  in
  scan logfile_start (-1);
  Arena.put arena scratch;
  let txns = List.rev !txns in
  List.iter
    (fun blocks ->
      List.iter
        (fun (home, copy) ->
          if home < dev.Dev.num_blocks then
            match dev.Dev.write home copy with
            | Ok () -> ()
            | Error _ -> Klog.error klog "ntfs" "log replay write failed")
        blocks)
    txns;
  List.iter release txns;
  if txns <> [] then begin
    Klog.info klog "ntfs" "logfile: replayed %d transactions" (List.length txns);
    ignore (dev.Dev.sync ())
  end

let mount_impl dev =
  let klog = Klog.create ~clock:dev.Dev.now () in
  recover_log dev klog;
  (* Boot file then the first MFT block: corrupt metadata means an
     unmountable volume (§5.4). Reads get the NTFS retry treatment. *)
  let retried b =
    let rec attempt n =
      match dev.Dev.read b with
      | Ok d -> Ok d
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
      zeros = Bytes.make dev.Dev.block_size '\000';
      num_blocks;
      txn = Hashtbl.create 32;
      txn_order = [];
      lpos = logfile_start;
      lseq = 1;
      free_blocks;
      fds = Fdtable.create ();
      cwd = root_ino;
      root = root_ino;
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

(* ---- brand -------------------------------------------------------------------- *)

let brand =
  let module M = struct
    let fs_name = "ntfs"
    let block_types = block_types
    let classifier = classify
    let corrupt_field = corrupt_field

    type t = state

    let mkfs = mkfs_impl
    let mount = mount_impl

    let unmount t =
      let* () = commit t in
      checkpoint t;
      ignore (t.dev.Dev.sync ());
      Ok ()

    let klog t = t.klog
    let is_readonly t = t.readonly

    let access t path =
      let* _ = resolve t path in
      Ok ()

    let chdir t path =
      let* ino = resolve t path in
      let* r = read_record t ino in
      if r.kind = Some Fs.Directory then begin
        t.cwd <- ino;
        Ok ()
      end
      else Error Errno.ENOTDIR

    let chroot t path =
      let* ino = resolve t path in
      let* r = read_record t ino in
      if r.kind = Some Fs.Directory then begin
        t.root <- ino;
        t.cwd <- ino;
        Ok ()
      end
      else Error Errno.ENOTDIR

    let stat_of ino (r : record) =
      {
        Fs.st_ino = ino;
        st_kind = Option.value ~default:Fs.Regular r.kind;
        st_size = r.size;
        st_links = r.links;
        st_mode = r.perms;
        st_uid = 0;
        st_gid = 0;
        st_atime = float_of_int r.atime;
        st_mtime = float_of_int r.mtime;
        st_ctime = float_of_int r.ctime;
      }

    let stat t path =
      let* ino = resolve t path in
      let* r = read_record t ino in
      Ok (stat_of ino r)

    let lstat t path =
      let* ino = resolve t ~follow_last:false path in
      let* r = read_record t ino in
      Ok (stat_of ino r)

    let statfs t =
      Ok
        {
          Fs.f_blocks = t.num_blocks - first_data;
          f_bfree = t.free_blocks;
          f_files = total_records;
          f_ffree = total_records;
          f_bsize = t.bs;
        }

    let open_ t path mode =
      let* ino = resolve t path in
      let* r = read_record t ino in
      match r.kind with
      | None -> Error Errno.EIO
      | Some Fs.Directory when mode <> Fs.Rd -> Error Errno.EISDIR
      | Some _ -> Ok (Fdtable.alloc t.fds { fd_ino = ino; fd_mode = mode })

    let close t fd = Fdtable.close t.fds fd

    let create_node t path k ~perms ~target =
      let* dino, name = resolve_parent t path in
      let* dr = read_record t dino in
      if dr.kind <> Some Fs.Directory then Error Errno.ENOTDIR
      else
        let* es = dir_entries t dr in
        if List.mem_assoc name es then Error Errno.EEXIST
        else begin
          let* ino = alloc_record t in
          let now = now_seconds t in
          let node =
            {
              free_record with
              kind = Some k;
              links = (if k = Fs.Directory then 2 else 1);
              perms;
              atime = now;
              mtime = now;
              ctime = now;
              target;
            }
          in
          let* node =
            if k <> Fs.Directory then Ok node
            else begin
              let* b = alloc_block t in
              let runs = Array.copy node.runs in
              runs.(0) <- b;
              let buf = Bytes.make t.bs '\000' in
              encode_index [ (".", ino); ("..", dino) ] buf;
              let* () = meta_write t b buf in
              Ok { node with runs; size = t.bs }
            end
          in
          let* () = write_record t ino node in
          let* () = dir_add t dino dr name ino in
          let* dr = read_record t dino in
          let links = if k = Fs.Directory then dr.links + 1 else dr.links in
          let* () = write_record t dino { dr with links; mtime = now; ctime = now } in
          Ok ino
        end

    let creat t path =
      let* ino = create_node t path Fs.Regular ~perms:0o644 ~target:"" in
      Ok (Fdtable.alloc t.fds { fd_ino = ino; fd_mode = Fs.Rdwr })

    let read t fd ~off ~len =
      let* { fd_ino; _ } = Fdtable.find t.fds fd in
      let* r = read_record t fd_ino in
      let len = max 0 (min len (r.size - off)) in
      if len = 0 then Ok Bytes.empty
      else begin
        let out = Bytes.create len in
        let rec fill pos =
          if pos >= len then Ok ()
          else begin
            let fblock = (off + pos) / t.bs in
            let boff = (off + pos) mod t.bs in
            let n = min (t.bs - boff) (len - pos) in
            let* data = data_read_block t r fblock in
            Bytes.blit data boff out pos n;
            fill (pos + n)
          end
        in
        let* () = fill 0 in
        Ok out
      end

    let write t fd ~off data =
      let* { fd_ino; fd_mode } = Fdtable.find t.fds fd in
      if fd_mode = Fs.Rd then Error Errno.EBADF
      else begin
        let* r0 = read_record t fd_ino in
        let len = Bytes.length data in
        let r = ref r0 in
        let rec put pos =
          if pos >= len then Ok ()
          else begin
            let fblock = (off + pos) / t.bs in
            let boff = (off + pos) mod t.bs in
            let n = min (t.bs - boff) (len - pos) in
            let* buf =
              if boff = 0 && n = t.bs then Ok (Bytes.sub data pos n)
              else
                let* old = owned (data_read_block t !r fblock) in
                Bytes.blit data pos old boff n;
                Ok old
            in
            let* r' = data_write_block t fd_ino !r fblock buf in
            r := r';
            put (pos + n)
          end
        in
        let* () = put 0 in
        let now = now_seconds t in
        let* () =
          write_record t fd_ino
            { !r with size = max r0.size (off + len); mtime = now; ctime = now }
        in
        Ok len
      end

    let readlink t path =
      let* ino = resolve t ~follow_last:false path in
      let* r = read_record t ino in
      if r.kind = Some Fs.Symlink then Ok r.target else Error Errno.EINVAL

    let getdirentries t path =
      let* ino = resolve t path in
      let* r = read_record t ino in
      if r.kind <> Some Fs.Directory then Error Errno.ENOTDIR
      else dir_entries t r

    let link t existing newpath =
      let* ino = resolve t existing in
      let* r = read_record t ino in
      if r.kind = Some Fs.Directory then Error Errno.EISDIR
      else
        let* dino, name = resolve_parent t newpath in
        let* dr = read_record t dino in
        let* es = dir_entries t dr in
        if List.mem_assoc name es then Error Errno.EEXIST
        else
          let* () = dir_add t dino dr name ino in
          write_record t ino { r with links = r.links + 1; ctime = now_seconds t }

    let symlink t target linkpath =
      let* _ = create_node t linkpath Fs.Symlink ~perms:0o777 ~target in
      Ok ()

    let mkdir t path =
      let* _ = create_node t path Fs.Directory ~perms:0o755 ~target:"" in
      Ok ()

    let remove_common t path ~dir =
      let* dino, name = resolve_parent t path in
      let* dr = read_record t dino in
      let* es = dir_entries t dr in
      match List.assoc_opt name es with
      | None -> Error Errno.ENOENT
      | Some ino -> (
          let* r = read_record t ino in
          match (dir, r.kind) with
          | true, k when k <> Some Fs.Directory -> Error Errno.ENOTDIR
          | false, Some Fs.Directory -> Error Errno.EISDIR
          | _ ->
              let* () =
                if not dir then Ok ()
                else
                  let* ces = dir_entries t r in
                  if List.for_all (fun (n, _) -> n = "." || n = "..") ces then Ok ()
                  else Error Errno.ENOTEMPTY
              in
              let now = now_seconds t in
              let* () = dir_remove t dino dr name in
              let links = r.links - if dir then 2 else 1 in
              if (dir && links <= 1) || ((not dir) && links <= 0) then begin
                let errors = ref 0 in
                Array.iter
                  (fun b ->
                    if b <> 0 then
                      match free_block t b with
                      | Ok () -> ()
                      | Error _ -> incr errors)
                  r.runs;
                let* () = write_record t ino free_record in
                let* () = free_record_slot t ino in
                let* d = read_record t dino in
                let* () =
                  write_record t dino
                    {
                      d with
                      links = (if dir then d.links - 1 else d.links);
                      mtime = now;
                      ctime = now;
                    }
                in
                if !errors > 0 then Error Errno.EIO else Ok ()
              end
              else
                let* () = write_record t ino { r with links; ctime = now } in
                let* d = read_record t dino in
                write_record t dino { d with mtime = now; ctime = now })

    let rmdir t path = remove_common t path ~dir:true
    let unlink t path = remove_common t path ~dir:false

    let rename t src dst =
      let* sdino, sname = resolve_parent t src in
      let* sdr = read_record t sdino in
      let* ses = dir_entries t sdr in
      match List.assoc_opt sname ses with
      | None -> Error Errno.ENOENT
      | Some ino ->
          let* ddino, dname = resolve_parent t dst in
          let* ddr = read_record t ddino in
          let* des = dir_entries t ddr in
          let* () =
            match List.assoc_opt dname des with
            | Some old when old <> ino -> (
                let* orr = read_record t old in
                match orr.kind with
                | Some Fs.Directory -> Error Errno.EISDIR
                | Some _ | None -> remove_common t dst ~dir:false)
            | Some _ | None -> Ok ()
          in
          let* sdr = read_record t sdino in
          let* () = dir_remove t sdino sdr sname in
          let* ddr = read_record t ddino in
          let* () = dir_add t ddino ddr dname ino in
          let* r = read_record t ino in
          if r.kind = Some Fs.Directory && sdino <> ddino then begin
            let* blocks = dir_blocks t r in
            let* () =
              match blocks with
              | (_, b, entries) :: _ ->
                  let entries' =
                    List.map
                      (fun (n, e) -> if n = ".." then (n, ddino) else (n, e))
                      entries
                  in
                  let buf = Bytes.make t.bs '\000' in
                  encode_index entries' buf;
                  meta_write t b buf
              | [] -> Ok ()
            in
            let* sd = read_record t sdino in
            let* () = write_record t sdino { sd with links = sd.links - 1 } in
            let* dd = read_record t ddino in
            write_record t ddino { dd with links = dd.links + 1 }
          end
          else Ok ()

    let truncate t path size =
      let* ino = resolve t path in
      let* r = read_record t ino in
      if r.kind = Some Fs.Directory then Error Errno.EISDIR
      else if size > data_runs * t.bs then Error Errno.EFBIG
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
                 ignore
                   (retried_write t b old ~attempts:data_write_attempts
                      ~what:"data")
             | Error _ -> incr errors
         end);
        let now = now_seconds t in
        let* () =
          write_record t ino { r with runs; size; mtime = now; ctime = now }
        in
        if !errors > 0 then Error Errno.EIO else Ok ()
      end

    let chmod t path perms =
      let* ino = resolve t path in
      let* r = read_record t ino in
      write_record t ino { r with perms; ctime = now_seconds t }

    let chown t path _uid _gid =
      let* ino = resolve t path in
      let* r = read_record t ino in
      write_record t ino { r with ctime = now_seconds t }

    let utimes t path atime mtime =
      let* ino = resolve t path in
      let* r = read_record t ino in
      write_record t ino
        { r with atime = int_of_float atime; mtime = int_of_float mtime }

    let fsync t fd =
      let* _ = Fdtable.find t.fds fd in
      commit t

    let sync t = commit t
  end in
  Fs.Brand (module M)
