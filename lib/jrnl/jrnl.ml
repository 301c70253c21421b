module Dev = Iron_disk.Dev
module Bcache = Iron_disk.Bcache
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Obs = Iron_obs.Obs
module Prov = Iron_obs.Prov
open Iron_util

let ( let* ) = Result.bind

(* The paper's three ext3 journaling modes (§2.1) plus the ixt3
   transactional-checksum variant (§6.1), which is ordered mode with the
   commit block carrying a SHA-1 over the payload so the pre-commit
   barrier can be elided. *)
type mode = Writeback | Ordered | Data_journal | Tc_checksummed

let mode_label = function
  | Writeback -> "writeback"
  | Ordered -> "ordered"
  | Data_journal -> "data-journal"
  | Tc_checksummed -> "ordered+tc"

(* How the journal meets a failed journal, journal-superblock,
   checkpoint or direct-flush write: the IRON reaction that tells the
   brands' journals apart (§5). *)
type iron =
  | Ignore
      (** stock ext3: drop the error code (DZero) and press on; a failed
          journal write does not stop the commit block, the paper's
          replay-corruption bug *)
  | Abort  (** ixt3: log the error and abort the journal *)
  | Panic  (** reiserfs: panic the machine ("first, do no harm", §5.2) *)

(* A brand's journal, as the paper tells the brands apart (§5): one
   mechanism under four values. *)
type policy = {
  tag : string;
      (** klog subsystem tag; fingerprint classification greps these
          messages, so the tag is part of the observable failure policy *)
  mode : mode;
  iron : iron;
  format : Jrec.format;
      (** the log's magic numbers, and whether it has revoke blocks *)
}

(* The journal's own region, [jsb, jend), is the one range of blocks
   both engines refuse to journal. *)
type geometry = {
  jsb : int;  (** journal superblock *)
  jfirst : int;  (** first log block *)
  jend : int;  (** one past the last log block *)
  num_blocks : int;  (** device size; replay refuses homes beyond it *)
}

let in_region geo b = b >= geo.jsb && b < geo.jend

type config = {
  policy : policy;
  dev : Dev.t;
  cache : Bcache.t;
  klog : Klog.t;
  geo : geometry;
  journaled : int -> bool;
      (** which staged blocks ride the log; the rest reach their homes
          by other means (ext3's replica copies stream separately) *)
}

(* A staged or committed block image. Its bytes never change while it is
   current, so [sha] memoizes their SHA-1. The digest lives in the
   record, not with the buffer: replacing, revoking or checkpointing the
   image drops the record, and the arena may hand the same buffer back
   for the next image's bytes. *)
type image = { data : bytes; mutable sha : Sha1.t option }

let image data = { data; sha = None }

type t = {
  cfg : config;
  jsb_shadow : (bytes -> unit) option;
  post_commit : ((int * bytes) list -> unit) option;
  mutable aborted : bool;
  txn : (int, image) Hashtbl.t;
  mutable txn_order : int list; (* newest first *)
  mutable txn_revoked : int list;
  pending : (int, image) Hashtbl.t;
  mutable pending_order : int list; (* newest first *)
  mutable jhead : int;
  mutable jseq : int;
}

(* [jsb_shadow] is called with the encoded journal superblock before
   the primary write (ixt3 Mr keeps a replica of it); [post_commit]
   after the commit barrier with the full transaction's (home, image)
   list (ixt3 Mr streams replica copies to the replica log there). *)
let create ?jsb_shadow ?post_commit cfg ~seq =
  {
    cfg;
    jsb_shadow;
    post_commit;
    aborted = false;
    txn = Hashtbl.create 32;
    txn_order = [];
    txn_revoked = [];
    pending = Hashtbl.create 32;
    pending_order = [];
    jhead = cfg.geo.jfirst;
    jseq = seq;
  }

(* Stop the journal: every later commit fails with EROFS, and the file
   system on it reads as read-only. *)
let abort t why =
  if not t.aborted then begin
    t.aborted <- true;
    Klog.error t.cfg.klog t.cfg.policy.tag
      "journal aborted (%s); remounting read-only" why
  end

let aborted t = t.aborted

(* Transaction images and commit scratch blocks cycle through the
   calling domain's block arena. An image's buffer has one owner, the
   engine, from the stage that adopts it until the image dies: coalesced
   under a newer stage, replaced in or emptied from the pending table by
   a commit or checkpoint, flushed directly, revoked or forgotten; then
   it goes back to the arena. Scratch (desc/revoke/commit/jsuper) blocks
   go back right after the device write copies them out. Sound because
   [find] hands out a read-only loan that its callers finish with before
   the next stage, commit, checkpoint or revoke (copying whatever they
   modify or keep), and the hooks ([post_commit], [jsb_shadow]) write
   through the device, which also copies. *)
let arena t = Arena.block t.cfg.dev.Dev.block_size
let zero_block t = Arena.get_zeroed (arena t)
let release t buf = Arena.put (arena t) buf

(* ------------------------------------------------------------------ *)
(* Transaction overlay                                                 *)
(* ------------------------------------------------------------------ *)

let current t b =
  match Hashtbl.find_opt t.txn b with
  | Some _ as i -> i
  | None -> Hashtbl.find_opt t.pending b

let find t b = match current t b with Some i -> Some i.data | None -> None

(* The memo answers only for the current image's own buffer: a copy, a
   replica or a released buffer is somebody else's bytes. *)
let digest t b buf =
  match current t b with
  | Some ({ data; _ } as i) when data == buf -> (
      match i.sha with
      | Some d -> Some d
      | None ->
          let d = Sha1.digest data in
          i.sha <- Some d;
          Some d)
  | Some _ | None -> None

(* Stage one block into the open transaction. The engine adopts [data]
   as the staged image, with no copy: the caller hands over a buffer it
   owns (best drawn from the arena, where the image's buffer goes when
   it dies) and never touches it again. A refused buffer is dropped. An
   overwrite of an already-staged block is a coalesced journal write —
   the group-commit win the counter makes visible: every stage since the
   last barrier rides one descriptor/commit pair. *)
let stage t b data =
  (* The one invariant every journal keeps: it never journals its own
     region. *)
  if in_region t.cfg.geo b then
    Klog.error t.cfg.klog t.cfg.policy.tag
      "refusing to journal journal block %d" b
  else begin
    (match Hashtbl.find_opt t.txn b with
    | Some old ->
        Obs.incr_a "jrnl.group_commit.coalesced";
        release t old.data
    | None -> t.txn_order <- b :: t.txn_order);
    Hashtbl.replace t.txn b (image data);
    (* Replay skips a block revoked at this transaction or later, so a
       revoke queued earlier in this transaction would swallow the new
       image: the block is live again. *)
    if List.mem b t.txn_revoked then
      t.txn_revoked <- List.filter (( <> ) b) t.txn_revoked
  end

(* A freed block's journaled images die with it: dropped from the open
   transaction and the checkpoint list, or a read would be served, and
   the checkpoint would write, the old owner's bytes over the new
   owner's. A log without revoke blocks stops here, so replay after a
   crash may still write the copies already logged home. *)
let forget t b =
  let drop table order =
    match Hashtbl.find_opt table b with
    | None -> order
    | Some old ->
        release t old.data;
        Hashtbl.remove table b;
        List.filter (( <> ) b) order
  in
  t.txn_order <- drop t.txn t.txn_order;
  t.pending_order <- drop t.pending t.pending_order

(* [forget], and a revoke record so replay skips the logged copies. *)
let revoke t b =
  forget t b;
  if not (List.mem b t.txn_revoked) then t.txn_revoked <- b :: t.txn_revoked

(* Data writes route by commit policy. Ordered (and its Tc variant)
   issues them straight to disk before the metadata commits — the error
   is surfaced so the caller can apply its failure policy (remap,
   abort, or drop it on the floor like stock ext3). Writeback defers
   the write to the next checkpoint: fsync makes the metadata durable
   but not the data, the paper's data-loss window. Data-journal stages
   the block into the transaction like metadata, so the data write can
   no longer fail here at all. The caller keeps [data] in every mode, so
   the journaled modes stage a copy. Returns [false] only on a device
   write failure in the ordered modes. *)
let write_data t b data =
  match t.cfg.policy.mode with
  | Ordered | Tc_checksummed -> (
      Prov.with_txn ~txn:t.jseq ~policy:(mode_label t.cfg.policy.mode)
      @@ fun () ->
      Prov.with_role "data" @@ fun () ->
      match Bcache.write t.cfg.cache b data with Ok () -> true | Error _ -> false)
  | Writeback ->
      (match Hashtbl.find_opt t.pending b with
      | Some old -> release t old.data
      | None -> t.pending_order <- b :: t.pending_order);
      Hashtbl.replace t.pending b (image (Arena.copy (arena t) data));
      true
  | Data_journal ->
      stage t b (Arena.copy (arena t) data);
      true

(* ------------------------------------------------------------------ *)
(* Commit, checkpoint                                                  *)
(* ------------------------------------------------------------------ *)

(* The policy's reaction to a failed write of [what] to block [b].
   Returns false once the journal has stopped. *)
let failed_write t what b =
  let tag = t.cfg.policy.tag in
  match t.cfg.policy.iron with
  | Ignore -> true
  | Abort ->
      Klog.error t.cfg.klog tag "%s write to block %d failed" what b;
      abort t (what ^ " write failure");
      false
  | Panic ->
      Klog.panic t.cfg.klog tag "%s write to block %d failed; panicking" what b

(* Write one block into the journal region. Stock ext3 drops the error
   and keeps committing — the bug the paper documents (§5.1). Returns
   false only when the journal stopped. *)
let journal_write t jb data =
  match t.cfg.dev.Dev.write jb data with
  | Ok () -> true
  | Error _ -> failed_write t "journal" jb

let write_jsuper t =
  Prov.with_role "jsb" @@ fun () ->
  let buf = zero_block t in
  Jrec.encode_jsuper t.cfg.policy.format
    { Jrec.sequence = t.jseq; start = t.jhead }
    buf;
  (match t.jsb_shadow with Some f -> f buf | None -> ());
  let r = t.cfg.dev.Dev.write t.cfg.geo.jsb buf in
  release t buf;
  match r with
  | Ok () -> true
  | Error _ -> failed_write t "journal superblock" t.cfg.geo.jsb

(* Checkpoint: push committed blocks to their home locations and reset
   the log. Stock ext3 ignores checkpoint write failures entirely —
   DZero on writes. *)
let checkpoint t =
  Obs.span_a ~subsystem:"jrnl" "checkpoint" @@ fun () ->
  Prov.with_txn ~txn:t.jseq ~policy:(mode_label t.cfg.policy.mode)
  @@ fun () ->
  Prov.with_role "checkpoint" @@ fun () ->
  (* Elevator order: writeback sweeps the disk in one direction, as the
     kernel's flusher would, instead of seeking in insertion order. *)
  let blocks = List.sort compare (List.rev t.pending_order) in
  List.iter
    (fun b ->
      match Hashtbl.find_opt t.pending b with
      | None -> ()
      | Some i -> (
          match Bcache.write t.cfg.cache b i.data with
          | Ok () -> ()
          | Error _ -> ignore (failed_write t "checkpoint" b)))
    blocks;
  Hashtbl.iter (fun _ old -> release t old.data) t.pending;
  Hashtbl.reset t.pending;
  t.pending_order <- [];
  (* The home-location writes must be durable before the log tail
     advances: a crash persisting the cleaned superblock while a
     checkpoint write was still in flight would have no replay path
     (jbd waits on checkpoint I/O before cleanup_journal_tail). *)
  ignore (t.cfg.dev.Dev.sync ());
  t.jhead <- t.cfg.geo.jfirst;
  ignore (write_jsuper t);
  ignore (t.cfg.dev.Dev.sync ())

let commit t =
  if Hashtbl.length t.txn = 0 && t.txn_revoked = [] then Ok ()
  else if aborted t then Error Errno.EROFS
  else
    Obs.span_a ~subsystem:"jrnl" "commit" @@ fun () ->
    Prov.with_txn ~txn:t.jseq ~policy:(mode_label t.cfg.policy.mode)
    @@ fun () ->
    begin
    let tc = t.cfg.policy.mode = Tc_checksummed in
    let fmt = t.cfg.policy.format in
    (* Blocks the policy excludes from the log (ext3's replica copies
       stream to the separate replica log via [post_commit], §6.1) still
       reach their fixed homes at checkpoint. *)
    let all_blocks = List.rev t.txn_order in
    let blocks = List.filter t.cfg.journaled all_blocks in
    let nblocks = List.length blocks in
    let needed = 2 + nblocks + (if t.txn_revoked = [] then 0 else 1) in
    let oversized () =
      t.jhead + needed > t.cfg.geo.jend
      || nblocks > Jrec.max_tags t.cfg.dev.Dev.block_size
    in
    if oversized () then checkpoint t;
    if aborted t then Error Errno.EROFS
    else if oversized () then begin
      (* A single transaction larger than the log, or with more blocks
         than its one descriptor can name: flush directly. This
         sacrifices atomicity for this oversized transaction, which the
         real system avoids by bounding transaction size; Table 6's
         full-ixt3 Web and TPC-B setups hit it, committing 276 and 255
         journaled blocks into a 255-block log. Every block goes home,
         the unjournaled ones included, and a barrier makes them
         durable before commit returns, as at checkpoint. *)
      Klog.warn t.cfg.klog t.cfg.policy.tag
        "transaction larger than journal; direct flush";
      Prov.with_role "direct" (fun () ->
          List.iter
            (fun b ->
              match Hashtbl.find_opt t.txn b with
              | Some i -> (
                  match Bcache.write t.cfg.cache b i.data with
                  | Ok () -> ()
                  | Error _ -> ignore (failed_write t "direct flush" b))
              | None -> ())
            all_blocks);
      ignore (t.cfg.dev.Dev.sync ());
      Hashtbl.iter (fun _ old -> release t old.data) t.txn;
      Hashtbl.reset t.txn;
      t.txn_order <- [];
      t.txn_revoked <- [];
      if aborted t then Error Errno.EROFS else Ok ()
    end
    else begin
      let seq = t.jseq in
      let buf = zero_block t in
      Jrec.encode_desc fmt { Jrec.seq; tags = blocks } buf;
      let ok = ref (Prov.with_role "desc" (fun () -> journal_write t t.jhead buf)) in
      release t buf;
      let pos = ref (t.jhead + 1) in
      let cksum_ctx = Sha1.init () in
      List.iter
        (fun b ->
          match Hashtbl.find_opt t.txn b with
          | None -> ()
          | Some { data; _ } ->
              if !ok then
                ok := Prov.with_role "payload" (fun () -> journal_write t !pos data);
              if tc then Sha1.feed cksum_ctx data;
              incr pos)
        blocks;
      if t.txn_revoked <> [] then begin
        let rbuf = zero_block t in
        Jrec.encode_revoke fmt
          { Jrec.rseq = seq; revoked = t.txn_revoked }
          rbuf;
        if !ok then
          ok := Prov.with_role "revoke" (fun () -> journal_write t !pos rbuf);
        release t rbuf;
        incr pos
      end;
      (* The ordering point: without transactional checksums the commit
         block may only be issued once the journal payload is durable,
         which costs a rotation (§6.1). With Tc the commit streams out
         with the payload. *)
      if not tc then ignore (t.cfg.dev.Dev.sync ());
      let cbuf = zero_block t in
      let checksum =
        if tc then Some (Sha1.to_raw (Sha1.finalize cksum_ctx)) else None
      in
      Jrec.encode_commit fmt { Jrec.cseq = seq; checksum } cbuf;
      if !ok then
        ok := Prov.with_role "commit" (fun () -> journal_write t !pos cbuf);
      release t cbuf;
      incr pos;
      ignore (t.cfg.dev.Dev.sync ());
      (* Issued after the commit (the journal is authoritative), so the
         hook costs one region visit per transaction. *)
      (match t.post_commit with
      | None -> ()
      | Some f ->
          f
            (List.filter_map
               (fun b ->
                 match Hashtbl.find_opt t.txn b with
                 | Some i -> Some (b, i.data)
                 | None -> None)
               all_blocks));
      if aborted t then Error Errno.EROFS
      else begin
        t.jhead <- !pos;
        t.jseq <- seq + 1;
        (* Migrate the transaction to the checkpoint list; an image
           keeps its digest. *)
        List.iter
          (fun b ->
            match Hashtbl.find_opt t.txn b with
            | None -> ()
            | Some i ->
                (match Hashtbl.find_opt t.pending b with
                | Some old -> release t old.data
                | None -> t.pending_order <- b :: t.pending_order);
                Hashtbl.replace t.pending b i)
          all_blocks;
        Hashtbl.reset t.txn;
        t.txn_order <- [];
        t.txn_revoked <- [];
        (* Batched checkpointing: committed blocks stay pending until a
           barrier (sync, unmount or a full log). *)
        if Hashtbl.length t.pending > 0 then
          Obs.incr_a "jrnl.checkpoint.batched.deferred";
        Ok ()
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* The committed-log scan                                              *)
(* ------------------------------------------------------------------ *)

(* A transaction the log holds whole: its descriptor, every copy, the
   revoke record when the format has one, and a commit naming the same
   sequence whose transactional checksum, if it carries one, matches
   the copies. [blocks] pairs each home with its copy, in descriptor
   order. *)
type committed = { seq : int; blocks : (int * bytes) list; revoked : int list }

(* Where a scan stopped: at the end of the committed chain, or at a
   failure worth a kernel-log line. *)
type scan_end =
  | Log_end
  | Desc_unreadable of int  (** the descriptor read at this block failed *)
  | Copy_unreadable
  | Commit_unreadable
  | Checksum_mismatch of int  (** at this sequence number *)

(* Walk the chain of committed transactions from block [start], below
   [jend]. Each begins with a descriptor whose sequence follows the last
   one's; [seq] names the first, and [None] takes the first descriptor's
   word for it. [read] serves the descriptor, revoke and commit blocks,
   which are decoded and dropped, so one scratch block can serve them
   all; [copy] serves the journaled copies, which the result keeps, and
   [drop] takes back those of a transaction that does not commit. Both
   return [None] when the read fails. With revoke blocks in the format,
   the block after the copies is first probed as a revoke record, then,
   unless it is this transaction's, read again as the commit. The caller
   words any kernel-log line. *)
let scan_committed fmt ~jend ~read ~copy ~drop ~start ~seq =
  let rec go pos expect acc =
    let stop why = (List.rev acc, why) in
    if pos >= jend then stop Log_end
    else
      match read pos with
      | None -> stop (Desc_unreadable pos)
      | Some buf -> (
          match Jrec.decode_desc fmt buf with
          | Some d
            when Option.fold ~none:true ~some:(( = ) d.Jrec.seq) expect -> (
              let seq = d.Jrec.seq in
              let copies =
                List.mapi (fun i _ -> copy (pos + 1 + i)) d.Jrec.tags
              in
              let give_back () = List.iter (Option.iter drop) copies in
              if List.exists Option.is_none copies then begin
                give_back ();
                stop Copy_unreadable
              end
              else
                let copies = List.map Option.get copies in
                let after = pos + 1 + List.length copies in
                let revoked, cpos =
                  if fmt.Jrec.revoke_magic = None then ([], after)
                  else
                    match Option.bind (read after) (Jrec.decode_revoke fmt) with
                    | Some r when r.Jrec.rseq = seq ->
                        (r.Jrec.revoked, after + 1)
                    | Some _ | None -> ([], after)
                in
                match Option.map (Jrec.decode_commit fmt) (read cpos) with
                | None ->
                    give_back ();
                    stop Commit_unreadable
                | Some (Some c) when c.Jrec.cseq = seq ->
                    let checksum_ok =
                      match c.Jrec.checksum with
                      | None -> true
                      | Some stored ->
                          let ctx = Sha1.init () in
                          List.iter (Sha1.feed ctx) copies;
                          String.equal stored (Sha1.to_raw (Sha1.finalize ctx))
                    in
                    if checksum_ok then
                      let blocks = List.combine d.Jrec.tags copies in
                      go (cpos + 1)
                        (Some (seq + 1))
                        ({ seq; blocks; revoked } :: acc)
                    else begin
                      give_back ();
                      stop (Checksum_mismatch seq)
                    end
                | Some (Some _ | None) ->
                    (* crashed before commit *)
                    give_back ();
                    stop Log_end)
          | Some _ | None -> stop Log_end)
  in
  go start seq []

(* [scan_committed] over a device: the control blocks are read into
   [scratch], and the copies into [arena] buffers, which the caller
   returns to the arena once it has replayed them. *)
let scan_device fmt ~dev ~scratch ~arena ~jend ~start ~seq =
  let read b =
    match dev.Dev.read_into b scratch with
    | Ok () -> Some scratch
    | Error _ -> None
  in
  let copy b =
    let c = Arena.get arena in
    match dev.Dev.read_into b c with
    | Ok () -> Some c
    | Error _ ->
        Arena.put arena c;
        None
  in
  scan_committed fmt ~jend ~read ~copy ~drop:(Arena.put arena) ~start ~seq

(* The gray-box classifiers' view of a log whose superblock sits at
   [geo.jsb]: [home -> copy] for every transaction recovery would
   replay, revoked or not, read through [raw], which may raise. *)
let committed_overlay fmt ~geo raw =
  let overlay = Hashtbl.create 16 in
  let read b = try Some (raw b) with _ -> None in
  (match Option.bind (read geo.jsb) (Jrec.decode_jsuper fmt) with
  | None -> ()
  | Some js ->
      let txns, _ =
        scan_committed fmt ~jend:geo.jend ~read ~copy:read ~drop:ignore
          ~start:js.Jrec.start ~seq:(Some js.Jrec.sequence)
      in
      List.iter
        (fun c ->
          List.iter
            (fun (home, copy) -> Hashtbl.replace overlay home copy)
            c.blocks)
        txns);
  overlay

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let recover { tag; format; iron; mode = _ } ~geo ~dev ~klog ?jsb_fallback
    ?refresh_replica () =
  Obs.span_a ~subsystem:"jrnl" "recover" @@ fun () ->
  (* One arena scratch block for every decode-then-discard read in the
     scan (superblock, descriptors, revoke probes, commits) and for the
     reset journal superblock: the decoders copy what they keep, and
     every device layer copies the buffer a write hands it. The copies
     that are replayed home are read into arena buffers of their own,
     which go back to the arena after the replay and the replica
     refresh. *)
  let arena = Arena.block dev.Dev.block_size in
  Arena.scratch arena @@ fun scratch ->
  let from_replica why e =
    match jsb_fallback with
    | None -> Error e
    | Some f -> ( match f ~scratch ~why with Some js -> Ok js | None -> Error e)
  in
  let* jsb =
    match dev.Dev.read_into geo.jsb scratch with
    | Error _ -> (
        match from_replica "unreadable" Errno.EIO with
        | Ok js -> Ok js
        | Error e ->
            Klog.error klog tag "journal superblock unreadable";
            Error e)
    | Ok () -> (
        match Jrec.decode_jsuper format scratch with
        | Some js -> Ok js
        | None -> (
            match from_replica "corrupt" Errno.EUCLEAN with
            | Ok js -> Ok js
            | Error e ->
                Klog.error klog tag "journal superblock has bad magic";
                Error e))
  in
  let txns, stopped =
    scan_device format ~dev ~scratch ~arena ~jend:geo.jend ~start:jsb.Jrec.start
      ~seq:(Some jsb.Jrec.sequence)
  in
  (match stopped with
  | Log_end -> ()
  | Desc_unreadable pos ->
      Klog.error klog tag "journal read failed at block %d during recovery" pos
  | Copy_unreadable ->
      Klog.error klog tag "journal data read failed during recovery"
  | Commit_unreadable ->
      Klog.error klog tag "journal commit read failed during recovery"
  | Checksum_mismatch seq ->
      Klog.error klog "ixt3"
        "transactional checksum mismatch at seq %d; not replaying" seq);
  let revokes = Hashtbl.create 8 in
  List.iter
    (fun c -> List.iter (fun b -> Hashtbl.replace revokes b c.seq) c.revoked)
    txns;
  let replay_errors = ref 0 in
  List.iter
    (fun c ->
      Prov.with_txn ~txn:c.seq ~policy:"" @@ fun () ->
      Prov.with_role "replay" @@ fun () ->
      List.iter
        (fun (home, copy) ->
          let revoked =
            match Hashtbl.find_opt revokes home with
            | Some rseq -> rseq >= c.seq
            | None -> false
          in
          if (not revoked) && home < geo.num_blocks then
            match dev.Dev.write home copy with
            | Ok () -> ()
            | Error _ -> incr replay_errors)
        c.blocks)
    txns;
  (* The replica log is not replayed; refresh the fixed-location
     replicas of whatever the journal just rewrote so the copies do not
     diverge from their primaries. *)
  (match refresh_replica with
  | None -> ()
  | Some refresh ->
      List.iter
        (fun c -> List.iter (fun (home, copy) -> refresh home copy) c.blocks)
        txns);
  List.iter
    (fun c -> List.iter (fun (_, copy) -> Arena.put arena copy) c.blocks)
    txns;
  if !replay_errors > 0 then
    Klog.error klog tag "%d write failures during journal replay" !replay_errors;
  (* Replay runs before the file system is up, so only [Abort] fails
     the mount; the other policies log the failures and mount. *)
  if !replay_errors > 0 && iron = Abort then Error Errno.EIO
  else begin
    if txns <> [] then
      Klog.info klog tag "journal: replayed %d transactions" (List.length txns);
    (* Reset the log. *)
    let last_seq =
      match List.rev txns with c :: _ -> c.seq + 1 | [] -> jsb.Jrec.sequence
    in
    (* Replayed home writes must be durable before the log declares
       itself clean — the same ordering rule as [checkpoint]. *)
    ignore (dev.Dev.sync ());
    Jrec.encode_jsuper format
      { Jrec.sequence = last_seq; start = geo.jfirst }
      scratch;
    (match Prov.with_role "jsb" (fun () -> dev.Dev.write geo.jsb scratch) with
    | Ok () -> ()
    | Error _ -> Klog.error klog tag "journal superblock update failed");
    ignore (dev.Dev.sync ());
    Ok last_seq
  end

(* ------------------------------------------------------------------ *)
(* Record-structured engine (jfs)                                      *)
(* ------------------------------------------------------------------ *)

(* jfs journals sub-block byte ranges instead of whole block images:
   diff-based record emission against an in-memory overlay, with a
   monotonically increasing transaction id in the journal superblock
   fencing off records that already checkpointed home. *)
module Record = struct
  type record = { r_tx : int; r_commit : bool; r_block : int; r_off : int; r_data : string }

  let record_size r = 4 + 1 + 4 + 2 + 2 + String.length r.r_data

  let jsuper_magic = 0x4A4C4F47
  let jdata_magic = 0x4A4C4442

  let encode_records bs records =
    (* Pack into j-data payload blocks: each block is {magic, count,
       records...}. Returns the block images in order. *)
    let blocks = ref [] in
    let buf = ref (Bytes.make bs '\000') in
    let w = ref (Codec.writer !buf) in
    let count = ref 0 in
    let start_block () =
      buf := Bytes.make bs '\000';
      w := Codec.writer !buf;
      Codec.put_u32 !w jdata_magic;
      Codec.put_u16 !w 0;
      count := 0
    in
    let flush () =
      if !count > 0 then begin
        Bytes.set_uint16_le !buf 4 !count;
        blocks := !buf :: !blocks
      end
    in
    start_block ();
    List.iter
      (fun r ->
        if Codec.writer_pos !w + record_size r > bs then begin
          flush ();
          start_block ()
        end;
        Codec.put_u32 !w r.r_tx;
        Codec.put_u8 !w (if r.r_commit then 2 else 1);
        Codec.put_u32 !w r.r_block;
        Codec.put_u16 !w r.r_off;
        Codec.put_u16 !w (String.length r.r_data);
        Codec.put_string !w r.r_data;
        incr count)
      records;
    flush ();
    List.rev !blocks

  let decode_record_block buf =
    try
      let r = Codec.reader buf in
      if Codec.get_u32 r <> jdata_magic then None
      else
        let n = Codec.get_u16 r in
        if n > 1024 then None
        else
          let rec go k acc =
            if k = 0 then Some (List.rev acc)
            else
              let r_tx = Codec.get_u32 r in
              let kind = Codec.get_u8 r in
              let r_block = Codec.get_u32 r in
              let r_off = Codec.get_u16 r in
              let len = Codec.get_u16 r in
              if len > Codec.remaining r then None
              else
                let r_data = Codec.get_string r len in
                go (k - 1) ({ r_tx; r_commit = kind = 2; r_block; r_off; r_data } :: acc)
          in
          go n []
    with Codec.Decode_error _ -> None

  let encode_jsuper txid start buf =
    Bytes.fill buf 0 (Bytes.length buf) '\000';
    let w = Codec.writer buf in
    Codec.put_u32 w jsuper_magic;
    Codec.put_u32 w txid;
    Codec.put_u32 w start

  let decode_jsuper buf =
    try
      let r = Codec.reader buf in
      if Codec.get_u32 r <> jsuper_magic then None
      else
        let txid = Codec.get_u32 r in
        let start = Codec.get_u32 r in
        Some (txid, start)
    with Codec.Decode_error _ -> None

  (* Scan committed records from the log; shared by recovery and the
     gray-box classifier. [read b] returns the block or None. Records
     from transactions older than the journal superblock's txid have
     already been checkpointed home and must not replay again. *)
  let scan_committed ~geo read ~min_tx start =
    let records = ref [] in
    let rec scan pos =
      if pos < geo.jend then
        match read pos with
        | None -> ()
        | Some buf -> (
            match decode_record_block buf with
            | None -> ()
            | Some rs ->
                records := rs :: !records;
                scan (pos + 1))
    in
    scan (max geo.jfirst start);
    let all =
      List.filter (fun r -> r.r_tx >= min_tx) (List.concat (List.rev !records))
    in
    let committed =
      List.filter_map (fun r -> if r.r_commit then Some r.r_tx else None) all
    in
    List.filter (fun r -> (not r.r_commit) && List.mem r.r_tx committed) all

  (* Diff-based record emission: this is what makes the journal
     "record-level" — only the changed byte ranges are logged. *)
  (* First index >= [i] where [old] and [fresh] disagree (or [n]).
     Equal prefixes skip eight bytes per compare — journaled pages are
     mostly unchanged, so this is the Record engine's hot loop. *)
  let first_diff old fresh i n =
    let i = ref i in
    while
      !i + 8 <= n && Bytes.get_int64_ne old !i = Bytes.get_int64_ne fresh !i
    do
      i := !i + 8
    done;
    while !i < n && Bytes.get old !i = Bytes.get fresh !i do
      incr i
    done;
    !i

  (* Byte-equal to the naive per-byte scan: a range extends while the
     next differing byte is within 32 equal bytes of the last one. *)
  let diff_ranges old fresh =
    let n = Bytes.length fresh in
    let ranges = ref [] in
    let i = ref (first_diff old fresh 0 n) in
    while !i < n do
      let start = !i in
      let last = ref !i in
      let scanning = ref true in
      while !scanning do
        let d = first_diff old fresh (!last + 1) n in
        if d < n && d - !last <= 32 then last := d
        else begin
          scanning := false;
          i := d
        end
      done;
      ranges := (start, !last - start + 1) :: !ranges
    done;
    List.rev !ranges

  type t = {
    tag : string;
    dev : Dev.t;
    bs : int;
    cache : Bcache.t;
    klog : Klog.t;
    geo : geometry;
    (* overlay: current in-memory page state; records: since last commit *)
    overlay : (int, bytes) Hashtbl.t;
    mutable overlay_order : int list;
    mutable records : record list; (* newest first *)
    mutable txid : int;
    mutable jpos : int; (* next free j-data block *)
  }

  let create ~tag ~dev ~cache ~klog ~geo ~txid =
    {
      tag;
      dev;
      bs = dev.Dev.block_size;
      cache;
      klog;
      geo;
      overlay = Hashtbl.create 32;
      overlay_order = [];
      records = [];
      txid;
      jpos = geo.jfirst;
    }

  let find t b = Hashtbl.find_opt t.overlay b

  let write t b data =
    if in_region t.geo b then
      Klog.error t.klog t.tag "refusing to journal journal block %d" b
    else begin
      let seen = Hashtbl.mem t.overlay b in
      let old =
        match Hashtbl.find_opt t.overlay b with
        | Some d -> d
        | None -> (
            match Bcache.borrow t.cache b with
            | Ok d -> d
            | Error _ -> Bytes.make t.bs '\000')
      in
      (* A rewrite of an overlaid page diffs against the un-checkpointed
         state: the ranges the two writes share are journaled once —
         record-level group commit. *)
      if seen then Obs.incr_a "jrnl.group_commit.coalesced";
      let ranges = diff_ranges old data in
      List.iter
        (fun (off, len) ->
          (* Records larger than a journal block are chunked. *)
          let rec chunk off len =
            let maxlen = t.bs - 32 in
            let l = min len maxlen in
            t.records <-
              {
                r_tx = t.txid;
                r_commit = false;
                r_block = b;
                r_off = off;
                r_data = Bytes.sub_string data off l;
              }
              :: t.records;
            if len > l then chunk (off + l) (len - l)
          in
          if len > 0 then chunk off len)
        ranges;
      if not seen then t.overlay_order <- b :: t.overlay_order;
      (* The overlay adopts [data], as [stage] does: the caller hands
         over a page it owns and never touches it again. The page did
         not come from the arena and never goes to it, so a page that a
         later write replaces, or a checkpoint or [forget] drops, stays
         valid under a reader that [find] lent it to. *)
      Hashtbl.replace t.overlay b data
    end

  (* A freed page leaves the overlay, so neither a read nor the
     checkpoint serves it to the block's next owner. Its records stay in
     the open transaction: the log has no revoke records, so replay
     after a crash may still write them home. *)
  let forget t b =
    if Hashtbl.mem t.overlay b then begin
      Hashtbl.remove t.overlay b;
      t.overlay_order <- List.filter (( <> ) b) t.overlay_order
    end

  let write_jsuper t =
    Prov.with_role "jsb" @@ fun () ->
    Arena.scratch (Arena.block t.bs) @@ fun buf ->
    encode_jsuper t.txid t.geo.jfirst buf;
    match t.dev.Dev.write t.geo.jsb buf with
    | Ok () -> ()
    | Error _ ->
        (* The one write error JFS does handle — by crashing (§5.3). *)
        Klog.panic t.klog t.tag "journal superblock write failed; halting"

  (* Checkpoint: apply the overlay to home locations. Write errors are
     ignored entirely (DZero). *)
  let checkpoint t =
    Obs.span_a ~subsystem:"jrnl" "checkpoint" @@ fun () ->
    Prov.with_txn ~txn:t.txid ~policy:"record" @@ fun () ->
    Prov.with_role "checkpoint" @@ fun () ->
    List.iter
      (fun b ->
        match Hashtbl.find_opt t.overlay b with
        | None -> ()
        | Some data -> (
            match Bcache.write t.cache b data with Ok () -> () | Error _ -> ()))
      (List.sort compare (List.rev t.overlay_order));
    Hashtbl.reset t.overlay;
    t.overlay_order <- [];
    (* As in the block engine: overlay write-back must be durable
       before the tail (txid fence) advances past it. *)
    ignore (t.dev.Dev.sync ());
    t.jpos <- t.geo.jfirst;
    t.txid <- t.txid + 1;
    write_jsuper t;
    ignore (t.dev.Dev.sync ())

  let commit t =
    if t.records = [] then ()
    else
      Obs.span_a ~subsystem:"jrnl" "commit" @@ fun () ->
      Prov.with_txn ~txn:t.txid ~policy:"record" @@ fun () ->
      let records =
        List.rev
          ({ r_tx = t.txid; r_commit = true; r_block = 0; r_off = 0; r_data = "" }
          :: t.records)
      in
      let blocks = encode_records t.bs records in
      if t.jpos + List.length blocks > t.geo.jend then checkpoint t;
      if t.jpos + List.length blocks > t.geo.jend then begin
        (* Oversized transaction: it has already been checkpointed home. *)
        t.records <- []
      end
      else begin
        Prov.with_role "payload" (fun () ->
            List.iter
              (fun img ->
                (match t.dev.Dev.write t.jpos img with
                | Ok () -> ()
                | Error _ -> () (* journal-data write errors: ignored *));
                t.jpos <- t.jpos + 1)
              blocks);
        ignore (t.dev.Dev.sync ());
        t.records <- [];
        t.txid <- t.txid + 1;
        (* Batched checkpointing, as in the block engine: overlaid pages
           wait for a barrier. *)
        if Hashtbl.length t.overlay > 0 then
          Obs.incr_a "jrnl.checkpoint.batched.deferred"
      end

  let recover ~tag ~geo ~dev ~klog () =
    Obs.span_a ~subsystem:"jrnl" "recover" @@ fun () ->
    (* One arena scratch block serves the whole recovery: the journal
       decoders and [scan_committed] copy what they keep
       ([decode_record_block] extracts strings), and replayed blocks and
       the new journal superblock are written from it straight to the
       device, which copies them. *)
    Arena.scratch (Arena.block dev.Dev.block_size) @@ fun scratch ->
    let* txid, start =
      match dev.Dev.read_into geo.jsb scratch with
      | Error _ ->
          Klog.error klog tag "journal superblock unreadable";
          Error Errno.EIO
      | Ok () -> (
          match decode_jsuper scratch with
          | Some v -> Ok v
          | None ->
              Klog.error klog tag "journal superblock bad magic";
              Error Errno.EUCLEAN)
    in
    let read b =
      match dev.Dev.read_into b scratch with
      | Ok () -> Some scratch
      | Error _ -> None
    in
    let records = scan_committed ~geo read ~min_tx:txid start in
    let* () =
      (* Replay, with sanity checking; a failure aborts the replay and the
         mount (§5.3). *)
      List.fold_left
        (fun acc r ->
          let* () = acc in
          if r.r_block >= geo.num_blocks || r.r_off + String.length r.r_data > dev.Dev.block_size
          then begin
            Klog.error klog tag "journal record fails sanity check; aborting replay";
            Error Errno.EUCLEAN
          end
          else
            match dev.Dev.read_into r.r_block scratch with
            | Error _ ->
                Klog.error klog tag "replay read of block %d failed" r.r_block;
                Ok ()
            | Ok () ->
                Bytes.blit_string r.r_data 0 scratch r.r_off
                  (String.length r.r_data);
                Prov.with_txn ~txn:r.r_tx ~policy:"record" (fun () ->
                    Prov.with_role "replay" (fun () ->
                        match dev.Dev.write r.r_block scratch with
                        | Ok () -> ()
                        | Error _ -> ()));
                Ok ())
        (Ok ()) records
    in
    if records <> [] then
      Klog.info klog tag "journal: replayed %d records" (List.length records);
    (* Replayed writes durable before the txid fence advances. *)
    ignore (dev.Dev.sync ());
    encode_jsuper (txid + 1) geo.jfirst scratch;
    (match Prov.with_role "jsb" (fun () -> dev.Dev.write geo.jsb scratch) with
    | Ok () -> ()
    | Error _ -> ());
    ignore (dev.Dev.sync ());
    Ok (txid + 1)
end
