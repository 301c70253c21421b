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

(* IRON detection/reaction levels that change how the journal itself
   responds to device errors. Stock ext3 has both off: it drops the
   error code (DZero) and presses on. *)
type iron = {
  abort_on_journal_write_failure : bool;
      (** a failed journal-data write stops the commit block (ixt3);
          [false] reproduces the paper's replay-corruption bug *)
  check_write_errors : bool;
      (** checkpoint / journal-superblock write errors abort the
          journal instead of vanishing *)
}

let stock_iron = { abort_on_journal_write_failure = false; check_write_errors = false }

(* Raw-speed tunables (ROADMAP item 5): how eagerly transactions close
   and how lazily committed blocks are written home. The defaults
   reproduce the historical I/O stream byte for byte — group commit
   merely names what the barrier already did (coalesce every stage
   since the last fsync into one burst), and a zero watermark keeps
   checkpoints at their barrier/log-full sites. Turning [group_commit]
   off makes the engine close a window eagerly every [window_blocks]
   staged blocks (more, smaller bursts — the paper's Table 6
   commit-frequency axis), and a positive [checkpoint_watermark] writes
   the pending batch home as soon as it reaches that many blocks
   instead of holding it for the next barrier. *)
type tuning = {
  group_commit : bool;
      (** coalesce all transactions staged between durability barriers
          into one journal write burst (one desc/commit pair) *)
  window_blocks : int;
      (** with [group_commit = false]: close and flush the open window
          once this many blocks are staged ([<= 0] never closes early) *)
  checkpoint_watermark : int;
      (** [> 0]: checkpoint as soon as this many committed blocks are
          pending, without waiting for sync/unmount/log-full; [0] defers
          write-back to the barriers (the historical stream) *)
}

let default_tuning =
  { group_commit = true; window_blocks = 32; checkpoint_watermark = 0 }

module type POLICY = sig
  val tag : string
  (** klog subsystem tag; fingerprint classification greps these
      messages, so the tag is part of the observable failure policy *)

  val mode : mode
  val iron : iron
end

type geometry = {
  jsb : int;  (** journal superblock *)
  jfirst : int;  (** first log block *)
  jend : int;  (** one past the last log block *)
  num_blocks : int;  (** device size; replay refuses homes beyond it *)
}

(* Hooks connect the engine back to file-system state that cannot exist
   before the engine does (mount builds the engine first, then the FS
   state closing over it). All are optional behaviors layered on the
   core protocol: replica streaming, journal-superblock shadows, abort
   plumbing. *)
type hooks = {
  mutable on_abort : string -> unit;
  mutable aborted : unit -> bool;
  mutable jsb_shadow : (bytes -> unit) option;
      (** called with the encoded journal superblock before the primary
          write (ixt3 Mr keeps a replica of it) *)
  mutable post_commit : ((int * bytes) list -> unit) option;
      (** called after the commit barrier with the full transaction
          (home, image) list (ixt3 Mr streams replica copies to the
          replica log here) *)
}

type config = {
  tag : string;
  mode : mode;
  iron : iron;
  tuning : tuning;
  dev : Dev.t;
  cache : Bcache.t;
  klog : Klog.t;
  kinds : int -> Kind.t;
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
  hooks : hooks;
  txn : (int, image) Hashtbl.t;
  mutable txn_order : int list; (* newest first *)
  mutable txn_revoked : int list;
  pending : (int, image) Hashtbl.t;
  mutable pending_order : int list; (* newest first *)
  mutable jhead : int;
  mutable jseq : int;
}

let create cfg ~seq =
  {
    cfg;
    hooks =
      {
        on_abort = (fun _ -> ());
        aborted = (fun () -> false);
        jsb_shadow = None;
        post_commit = None;
      };
    txn = Hashtbl.create 32;
    txn_order = [];
    txn_revoked = [];
    pending = Hashtbl.create 32;
    pending_order = [];
    jhead = cfg.geo.jfirst;
    jseq = seq;
  }

let connect t ~on_abort ~aborted ?jsb_shadow ?post_commit () =
  t.hooks.on_abort <- on_abort;
  t.hooks.aborted <- aborted;
  t.hooks.jsb_shadow <- jsb_shadow;
  t.hooks.post_commit <- post_commit

let abort t why = t.hooks.on_abort why
let aborted t = t.hooks.aborted ()
let kind t b = t.cfg.kinds b

(* Transaction images and commit scratch blocks cycle through the
   calling domain's block arena: staged images are released when the
   checkpoint empties the pending table, scratch (desc/revoke/commit/
   jsuper) blocks right after the device write copies them out. Sound
   because [find] hands out a read-only loan that its callers finish
   with before the next stage, commit, checkpoint or revoke (copying
   whatever they modify or keep), and the hooks ([post_commit],
   [jsb_shadow]) write through the device, which also copies. *)
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

(* Stage one block into the open transaction; the group-commit window
   bookkeeping wraps this below (the eager flush needs [commit]). An
   overwrite of an already-staged block is a coalesced journal write —
   the group-commit win the counter makes visible. *)
let stage_block t b data =
  (* The one invariant the typed layout enforces unconditionally: the
     journal never journals its own region. *)
  if Kind.is_journal_region (t.cfg.kinds b) then
    Klog.error t.cfg.klog t.cfg.tag "refusing to journal journal block %d" b
  else begin
    (match Hashtbl.find_opt t.txn b with
    | Some old ->
        Obs.incr_a "jrnl.group_commit.coalesced";
        release t old.data
    | None -> t.txn_order <- b :: t.txn_order);
    Hashtbl.replace t.txn b (image (Arena.copy (arena t) data));
    (* Replay skips a block revoked at this transaction or later, so a
       revoke queued earlier in this transaction would swallow the new
       image: the block is live again. *)
    if List.mem b t.txn_revoked then
      t.txn_revoked <- List.filter (( <> ) b) t.txn_revoked
  end

(* A freed block's journaled images die with it: dropped from the open
   transaction and the checkpoint list (or a read would be served, and
   the checkpoint would write, the old owner's bytes over the new
   owner's), and revoked so replay skips the copies already in the log. *)
let revoke t b =
  let drop table order =
    match Hashtbl.find_opt table b with
    | None -> order
    | Some old ->
        release t old.data;
        Hashtbl.remove table b;
        List.filter (( <> ) b) order
  in
  t.txn_order <- drop t.txn t.txn_order;
  t.pending_order <- drop t.pending t.pending_order;
  if not (List.mem b t.txn_revoked) then t.txn_revoked <- b :: t.txn_revoked

(* Data writes route by commit policy. Ordered (and its Tc variant)
   issues them straight to disk before the metadata commits — the error
   is surfaced so the caller can apply its failure policy (remap,
   abort, or drop it on the floor like stock ext3). Writeback defers
   the write to the next checkpoint: fsync makes the metadata durable
   but not the data, the paper's data-loss window. Data-journal stages
   the block into the transaction like metadata, so the data write can
   no longer fail here at all. Returns [false] only on a device write
   failure in the ordered modes. *)
let write_data_raw t b data =
  match t.cfg.mode with
  | Ordered | Tc_checksummed -> (
      Prov.with_txn ~txn:t.jseq ~policy:(mode_label t.cfg.mode) @@ fun () ->
      Prov.with_role "data" @@ fun () ->
      match Bcache.write t.cfg.cache b data with Ok () -> true | Error _ -> false)
  | Writeback ->
      (match Hashtbl.find_opt t.pending b with
      | Some old -> release t old.data
      | None -> t.pending_order <- b :: t.pending_order);
      Hashtbl.replace t.pending b (image (Arena.copy (arena t) data));
      true
  | Data_journal ->
      stage_block t b data;
      true

(* ------------------------------------------------------------------ *)
(* Commit, checkpoint                                                  *)
(* ------------------------------------------------------------------ *)

(* Write one block into the journal region. Stock ext3 drops the error
   and keeps committing — the bug the paper documents (§5.1); ixt3
   aborts the journal. Returns false only when aborted. *)
let journal_write t jb data =
  match t.cfg.dev.Dev.write jb data with
  | Ok () -> true
  | Error _ ->
      (* Stock ext3 does not even record the error code (DZero) and
         presses on with the commit block — the replay-corruption bug.
         ixt3 logs and aborts. *)
      if t.cfg.iron.abort_on_journal_write_failure then begin
        Klog.error t.cfg.klog t.cfg.tag "journal write to block %d failed" jb;
        abort t "journal write failure";
        false
      end
      else true

let write_jsuper t =
  Prov.with_role "jsb" @@ fun () ->
  let buf = zero_block t in
  Jrec.encode_jsuper { Jrec.sequence = t.jseq; start = t.jhead } buf;
  (match t.hooks.jsb_shadow with Some f -> f buf | None -> ());
  let r = t.cfg.dev.Dev.write t.cfg.geo.jsb buf in
  release t buf;
  match r with
  | Ok () -> true
  | Error _ ->
      if t.cfg.iron.check_write_errors then begin
        Klog.error t.cfg.klog t.cfg.tag "journal superblock write failed";
        abort t "journal superblock write failure";
        false
      end
      else true

(* Checkpoint: push committed blocks to their home locations and reset
   the log. Stock ext3 ignores checkpoint write failures entirely —
   DZero on writes. *)
let checkpoint t =
  Obs.span_a ~subsystem:"jrnl" "checkpoint" @@ fun () ->
  Prov.with_txn ~txn:t.jseq ~policy:(mode_label t.cfg.mode) @@ fun () ->
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
          | Error _ ->
              if t.cfg.iron.check_write_errors then begin
                Klog.error t.cfg.klog t.cfg.tag "checkpoint write to block %d failed" b;
                abort t "checkpoint write failure"
              end))
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
    Prov.with_txn ~txn:t.jseq ~policy:(mode_label t.cfg.mode) @@ fun () ->
    begin
    let tc = t.cfg.mode = Tc_checksummed in
    (* Blocks the policy excludes from the log (ext3's replica copies
       stream to the separate replica log via [post_commit], §6.1) still
       reach their fixed homes at checkpoint. *)
    let all_blocks = List.rev t.txn_order in
    let blocks = List.filter t.cfg.journaled all_blocks in
    let needed = 2 + List.length blocks + (if t.txn_revoked = [] then 0 else 1) in
    if t.jhead + needed > t.cfg.geo.jend then checkpoint t;
    if aborted t then Error Errno.EROFS
    else if t.jhead + needed > t.cfg.geo.jend then begin
      (* A single transaction larger than the log: flush directly. This
         sacrifices atomicity for this oversized transaction, which the
         real system avoids by bounding transaction size; our workloads
         never hit it, but fault injection might. *)
      Klog.warn t.cfg.klog t.cfg.tag "transaction larger than journal; direct flush";
      Prov.with_role "direct" (fun () ->
          List.iter
            (fun b ->
              match Hashtbl.find_opt t.txn b with
              | Some i -> ignore (Bcache.write t.cfg.cache b i.data)
              | None -> ())
            blocks);
      Hashtbl.iter (fun _ old -> release t old.data) t.txn;
      Hashtbl.reset t.txn;
      t.txn_order <- [];
      t.txn_revoked <- [];
      Ok ()
    end
    else begin
      let seq = t.jseq in
      let buf = zero_block t in
      Jrec.encode_desc { Jrec.seq; tags = blocks } buf;
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
        Jrec.encode_revoke { Jrec.rseq = seq; revoked = t.txn_revoked } rbuf;
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
      Jrec.encode_commit { Jrec.cseq = seq; checksum } cbuf;
      if !ok then
        ok := Prov.with_role "commit" (fun () -> journal_write t !pos cbuf);
      release t cbuf;
      incr pos;
      ignore (t.cfg.dev.Dev.sync ());
      (* Issued after the commit (the journal is authoritative), so the
         hook costs one region visit per transaction. *)
      (match t.hooks.post_commit with
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
           barrier (sync/unmount/log-full) — or, past the watermark,
           until right now. *)
        let np = Hashtbl.length t.pending in
        if np > 0 then begin
          let wm = t.cfg.tuning.checkpoint_watermark in
          if wm > 0 && np >= wm then begin
            Obs.incr_a "jrnl.checkpoint.batched";
            checkpoint t
          end
          else Obs.incr_a "jrnl.checkpoint.batched.deferred"
        end;
        if aborted t then Error Errno.EROFS else Ok ()
      end
    end
  end

(* Group-commit window bookkeeping around the staging entry points.
   With [group_commit] on (the default), staged blocks simply
   accumulate until the next durability barrier — the barrier commit IS
   the coalesced burst. With it off, the window soft-closes as soon as
   [window_blocks] blocks are staged and the engine flushes eagerly. *)
let maybe_flush_window t =
  if
    (not t.cfg.tuning.group_commit)
    && t.cfg.tuning.window_blocks > 0
    && Hashtbl.length t.txn >= t.cfg.tuning.window_blocks
    && not (aborted t)
  then begin
    Obs.incr_a "jrnl.group_commit.window_flush";
    ignore (commit t)
  end

let stage t b data =
  stage_block t b data;
  maybe_flush_window t

let write_data t b data =
  let ok = write_data_raw t b data in
  maybe_flush_window t;
  ok

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let recover ~tag ~iron ~geo ~dev ~klog ?jsb_fallback ?refresh_replica () =
  Obs.span_a ~subsystem:"jrnl" "recover" @@ fun () ->
  let bs = dev.Dev.block_size in
  (* Scratch block for every decode-then-discard read in the scan
     (superblock, descriptors, revoke probes, commits): the decoders
     copy what they keep, so one buffer serves the whole recovery
     instead of one allocation per journal block. The copies that are
     replayed home are read into arena buffers, which go back to the
     arena after the replay and the replica refresh: every device layer
     copies the buffer a write hands it. *)
  let scratch = Bytes.create bs in
  let arena = Arena.block bs in
  let release = List.iter (Arena.put arena) in
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
        match Jrec.decode_jsuper scratch with
        | Some js -> Ok js
        | None -> (
            match from_replica "corrupt" Errno.EUCLEAN with
            | Ok js -> Ok js
            | Error e ->
                Klog.error klog tag "journal superblock has bad magic";
                Error e))
  in
  (* Scan committed transactions. *)
  let txns = ref [] in
  let revokes = Hashtbl.create 8 in
  let rec scan pos seq =
    if pos >= geo.jend then ()
    else
      match dev.Dev.read_into pos scratch with
      | Error _ ->
          Klog.error klog tag "journal read failed at block %d during recovery" pos
      | Ok () -> (
          match Jrec.decode_desc scratch with
          | None -> () (* end of log *)
          | Some d when d.Jrec.seq <> seq -> ()
          | Some d -> (
              let count = List.length d.Jrec.tags in
              let copies = ref [] in
              let ok = ref true in
              for i = 1 to count do
                let c = Arena.get arena in
                match dev.Dev.read_into (pos + i) c with
                | Ok () -> copies := c :: !copies
                | Error _ ->
                    Arena.put arena c;
                    ok := false;
                    Klog.error klog tag "journal data read failed during recovery"
              done;
              let copies = List.rev !copies in
              if not !ok then release copies
              else
                let after = pos + 1 + count in
                (* Optional revoke block, then the commit. *)
                let rev, cpos =
                  match dev.Dev.read_into after scratch with
                  | Ok () -> (
                      match Jrec.decode_revoke scratch with
                      | Some r when r.Jrec.rseq = seq -> (Some r, after + 1)
                      | Some _ | None -> (None, after))
                  | Error _ -> (None, after)
                in
                match dev.Dev.read_into cpos scratch with
                | Error _ ->
                    release copies;
                    Klog.error klog tag "journal commit read failed during recovery"
                | Ok () -> (
                    match Jrec.decode_commit scratch with
                    | Some c when c.Jrec.cseq = seq ->
                        let checksum_ok =
                          match c.Jrec.checksum with
                          | None -> true
                          | Some stored ->
                              let ctx = Sha1.init () in
                              List.iter (fun d -> Sha1.feed ctx d) copies;
                              String.equal stored (Sha1.to_raw (Sha1.finalize ctx))
                        in
                        if checksum_ok then begin
                          (match rev with
                          | Some r ->
                              List.iter
                                (fun b -> Hashtbl.replace revokes b seq)
                                r.Jrec.revoked
                          | None -> ());
                          txns := (seq, List.combine d.Jrec.tags copies) :: !txns;
                          scan (cpos + 1) (seq + 1)
                        end
                        else begin
                          release copies;
                          Klog.error klog "ixt3"
                            "transactional checksum mismatch at seq %d; not replaying"
                            seq
                        end
                    | Some _ | None -> release copies (* crashed before commit *))))
  in
  scan jsb.Jrec.start jsb.Jrec.sequence;
  let txns = List.rev !txns in
  let replay_errors = ref 0 in
  List.iter
    (fun (seq, blocks) ->
      Prov.with_txn ~txn:seq ~policy:"" @@ fun () ->
      Prov.with_role "replay" @@ fun () ->
      List.iter
        (fun (home, copy) ->
          let revoked =
            match Hashtbl.find_opt revokes home with
            | Some rseq -> rseq >= seq
            | None -> false
          in
          if (not revoked) && home < geo.num_blocks then
            match dev.Dev.write home copy with
            | Ok () -> ()
            | Error _ -> incr replay_errors)
        blocks)
    txns;
  (* The replica log is not replayed; refresh the fixed-location
     replicas of whatever the journal just rewrote so the copies do not
     diverge from their primaries. *)
  (match refresh_replica with
  | None -> ()
  | Some refresh ->
      List.iter
        (fun (_, blocks) ->
          List.iter (fun (home, copy) -> refresh home copy) blocks)
        txns);
  List.iter
    (fun (_, blocks) -> List.iter (fun (_, c) -> Arena.put arena c) blocks)
    txns;
  if !replay_errors > 0 then
    Klog.error klog tag "%d write failures during journal replay" !replay_errors;
  if !replay_errors > 0 && iron.check_write_errors then Error Errno.EIO
  else begin
    if txns <> [] then
      Klog.info klog tag "journal: replayed %d transactions" (List.length txns);
    (* Reset the log. *)
    let last_seq =
      match List.rev txns with (s, _) :: _ -> s + 1 | [] -> jsb.Jrec.sequence
    in
    (* Replayed home writes must be durable before the log declares
       itself clean — the same ordering rule as [checkpoint]. *)
    ignore (dev.Dev.sync ());
    let buf = Bytes.make bs '\000' in
    Jrec.encode_jsuper { Jrec.sequence = last_seq; start = geo.jfirst } buf;
    (match Prov.with_role "jsb" (fun () -> dev.Dev.write geo.jsb buf) with
    | Ok () -> ()
    | Error _ -> Klog.error klog tag "journal superblock update failed");
    ignore (dev.Dev.sync ());
    Ok last_seq
  end

(* ------------------------------------------------------------------ *)
(* Functor packaging                                                   *)
(* ------------------------------------------------------------------ *)

(* The functor is a thin specialization over the shared engine type:
   [type nonrec t = t] keeps the engine storable inside the file
   system's own state record (a generative [t] per application could
   not escape the mount function), while the policy module pins the
   tag, commit mode and IRON reactions at brand-construction time. *)
module Make (P : POLICY) = struct
  type nonrec t = t

  let create ?(tuning = default_tuning) ~dev ~cache ~klog ~kinds ~geo ~journaled
      ~seq () =
    create
      {
        tag = P.tag;
        mode = P.mode;
        iron = P.iron;
        tuning;
        dev;
        cache;
        klog;
        kinds;
        geo;
        journaled;
      }
      ~seq

  let recover ~geo ~dev ~klog ?jsb_fallback ?refresh_replica () =
    recover ~tag:P.tag ~iron:P.iron ~geo ~dev ~klog ?jsb_fallback ?refresh_replica ()

  let connect = connect
  let find = find
  let digest = digest
  let stage = stage
  let revoke = revoke
  let write_data = write_data
  let commit = commit
  let checkpoint = checkpoint
  let kind = kind
  let mode = P.mode
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
    kinds : int -> Kind.t;
    geo : geometry;
    tuning : tuning;
        (* same knobs as the block engine; [window_blocks] counts
           emitted records here, the engine's unit of journal payload *)
    (* overlay: current in-memory page state; records: since last commit *)
    overlay : (int, bytes) Hashtbl.t;
    mutable overlay_order : int list;
    mutable records : record list; (* newest first *)
    mutable nrecords : int;
    mutable txid : int;
    mutable jpos : int; (* next free j-data block *)
  }

  let create ?(tuning = default_tuning) ~tag ~dev ~cache ~klog ~kinds ~geo ~txid
      () =
    {
      tag;
      dev;
      bs = dev.Dev.block_size;
      cache;
      klog;
      kinds;
      geo;
      tuning;
      overlay = Hashtbl.create 32;
      overlay_order = [];
      records = [];
      nrecords = 0;
      txid;
      jpos = geo.jfirst;
    }

  let find t b = Hashtbl.find_opt t.overlay b

  let write_raw t b data =
    if Kind.is_journal_region (t.kinds b) then
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
            t.nrecords <- t.nrecords + 1;
            if len > l then chunk (off + l) (len - l)
          in
          if len > 0 then chunk off len)
        ranges;
      if not seen then t.overlay_order <- b :: t.overlay_order;
      Hashtbl.replace t.overlay b (Bytes.copy data)
    end

  let write_jsuper t =
    Prov.with_role "jsb" @@ fun () ->
    let buf = Bytes.make t.bs '\000' in
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
        t.records <- [];
        t.nrecords <- 0
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
        t.nrecords <- 0;
        t.txid <- t.txid + 1;
        (* Batched checkpointing, as in the block engine: overlaid pages
           wait for a barrier or the watermark. *)
        let np = Hashtbl.length t.overlay in
        if np > 0 then begin
          let wm = t.tuning.checkpoint_watermark in
          if wm > 0 && np >= wm then begin
            Obs.incr_a "jrnl.checkpoint.batched";
            checkpoint t
          end
          else Obs.incr_a "jrnl.checkpoint.batched.deferred"
        end
      end

  (* Record-engine group-commit window: soft-close once [window_blocks]
     records are emitted (the record is this engine's payload unit). *)
  let maybe_flush_window t =
    if
      (not t.tuning.group_commit)
      && t.tuning.window_blocks > 0
      && t.nrecords >= t.tuning.window_blocks
    then begin
      Obs.incr_a "jrnl.group_commit.window_flush";
      commit t
    end

  let write t b data =
    write_raw t b data;
    maybe_flush_window t

  let recover ~tag ~geo ~dev ~klog () =
    Obs.span_a ~subsystem:"jrnl" "recover" @@ fun () ->
    (* One scratch block serves the whole recovery: the journal decoders
       and [scan_committed] copy what they keep ([decode_record_block]
       extracts strings), and replayed blocks are patched in place and
       written straight back. *)
    let scratch = Bytes.create dev.Dev.block_size in
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
    let js = Bytes.make dev.Dev.block_size '\000' in
    encode_jsuper (txid + 1) geo.jfirst js;
    (match Prov.with_role "jsb" (fun () -> dev.Dev.write geo.jsb js) with
    | Ok () -> ()
    | Error _ -> ());
    ignore (dev.Dev.sync ());
    Ok (txid + 1)
end
