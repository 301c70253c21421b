(* Crash-state exploration. See explore.mli for the model.

   One pipeline, one implementation per step:

     make_base       mkfs + the caller's setup, clean unmount, freeze
     record_session  restore the base, remount, snapshot the session
                     baseline, run the caller's ops through a Wlog
                     recorder (every write copied, epochs at sync
                     boundaries); the whole-log geometry is built here
     enumerate       pure: turn the log into crash-state specs, one
                     reorder window per epoch plus the whole log,
                     deduplicated by final content assignment, until
                     the cap is reached
     check           per state: O(dirty) restore of the baseline + one
                     poke per chosen block, remount, Tc scan, the
                     caller's verifier, unmount, optional fsck

   [explore] is one client of these steps (fsync'd durable files in the
   base, racing files recorded); the fuzzing and traffic campaigns are
   the others.

   The check phase is embarrassingly parallel: a spec is immutable, the
   baseline is frozen, and each worker domain keeps one private scratch
   device in domain-local storage — the same discipline as the
   fingerprinting executor. Results are slotted by spec index, so the
   report cannot depend on the worker count. *)

module Memdisk = Iron_disk.Memdisk
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Obs = Iron_obs.Obs
module Prov = Iron_obs.Prov
module Prng = Iron_util.Prng
module Pool = Iron_util.Pool
module Sha1 = Iron_util.Sha1

type kind = Unmountable | Data_loss | Fsck_unclean | Panic

let kind_to_string = function
  | Unmountable -> "unmountable"
  | Data_loss -> "data-loss"
  | Fsck_unclean -> "fsck-unclean"
  | Panic -> "panic"

type violation = { state : string; v_kind : kind; detail : string }

type culprit = {
  cu_block : int;
  cu_label : string;
  cu_role : string;
  cu_txn : int;
  cu_policy : string;
  cu_epoch : int;
  cu_op : int;
  cu_op_label : string;
  cu_rule : string;
  cu_first_seq : int;
  cu_dropped : int;
  cu_torn : bool;
}

type chain = {
  ch_state : string;
  ch_kind : kind;
  ch_detail : string;
  ch_probes : int;
  ch_culprits : culprit list;
  ch_summary : string;
}

type logged = {
  lg_seq : int;
  lg_block : int;
  lg_epoch : int;
  lg_label : string;
  lg_t : float;
  lg_op : int;
  lg_op_label : string;
  lg_txn : int;
  lg_policy : string;
  lg_role : string;
  lg_rule : string;
}

type report = {
  fs : string;
  log_len : int;
  rep_epochs : int;
  states : int;
  violations : violation list;
  tc_detected : int;
  chains : chain list;
  log : logged list;
}

let count r k = List.length (List.filter (fun v -> v.v_kind = k) r.violations)

let offline_fsck brand =
  match Fs.brand_name brand with
  | "ext3" | "ixt3" | "ext3-writeback" | "ext3-data" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Record                                                              *)
(* ------------------------------------------------------------------ *)

(* One reorder window: the entries a crash may persist any admissible
   subset of, on top of a durable prefix (the closed epochs before it).
   The merge lists, in block order, every block the durable prefix or
   the window writes, with the block's last durable write and its
   window slot, so that a candidate's sorted choices take one pass. *)
type window = {
  w_name : string;
  blocks : int array; (* window blocks, in first-touch order *)
  groups : int array array; (* per block: its window writes, in order *)
  seq_slots : int array; (* per window write, in issue order: its slot *)
  m_durable : int array; (* merge row -> last durable write, or -1 *)
  m_slot : int array; (* merge row -> window slot, or -1 *)
}

(* A recorded workload: the frozen post-mount baseline, the write log,
   and the log's geometry over the whole-log window, built once when
   the log is taken and read-only afterwards, so any number of domains
   may check one session at once. The digest cache is the only mutable
   part. *)
type session = {
  ss_baseline : Memdisk.image;
  ss_entries : Wlog.entry array;
  ss_epochs : int;
  ss_whole : window; (* every write: what a lying cache may reorder *)
  ss_pos : int array; (* entry idx -> position within its block's writes *)
  ss_pairs : (int * int) array; (* entry idx -> (block, idx), shared *)
  mutable ss_digests : string array option;
}

let session_log_len s = Array.length s.ss_entries
let session_epochs s = s.ss_epochs
let session_entries s = Array.copy s.ss_entries

let session_log_bytes s =
  Array.fold_left
    (fun n (e : Wlog.entry) -> n + Bytes.length e.Wlog.w_data)
    0 s.ss_entries

(* The whole-log window, with no durable prefix, and each write's
   position within its block's writes. *)
let whole_of entries =
  let n = Array.length entries in
  let slot = Array.make n 0 and pos = Array.make n 0 in
  let seen : (int, int * int ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Wlog.entry) ->
      match Hashtbl.find_opt seen e.Wlog.w_block with
      | Some (j, k) ->
          slot.(i) <- j;
          pos.(i) <- !k;
          incr k
      | None ->
          slot.(i) <- Hashtbl.length seen;
          Hashtbl.add seen e.Wlog.w_block (slot.(i), ref 1))
    entries;
  let nslots = Hashtbl.length seen in
  let blocks = Array.make nslots 0 and groups = Array.make nslots [||] in
  Hashtbl.iter
    (fun b (j, k) ->
      blocks.(j) <- b;
      groups.(j) <- Array.make !k 0)
    seen;
  Array.iteri (fun i j -> groups.(j).(pos.(i)) <- i) slot;
  let by_block = Array.init nslots Fun.id in
  Array.sort (fun a b -> compare blocks.(a) blocks.(b)) by_block;
  ( {
      w_name = "all";
      blocks;
      groups;
      seq_slots = slot;
      m_durable = Array.make nslots (-1);
      m_slot = by_block;
    },
    pos )

(* The window of epoch [e], whose writes are entries [lo, hi), over the
   durable prefix [last] (whole-log slot -> its last write before [lo],
   or -1). [wslot] maps whole-log slots to window slots; it is all -1
   on entry and is left so. *)
let epoch_window s e ~lo ~hi ~last ~wslot =
  let whole = s.ss_whole in
  let owners = ref [] and nw = ref 0 in
  let seq_slots =
    Array.init (hi - lo) (fun k ->
        let sl = whole.seq_slots.(lo + k) in
        if wslot.(sl) < 0 then begin
          wslot.(sl) <- !nw;
          incr nw;
          owners := sl :: !owners
        end;
        wslot.(sl))
  in
  let owners = Array.of_list (List.rev !owners) in
  (* A block's window writes are the run of its writes after its last
     durable one, up to [hi]. *)
  let groups =
    Array.map
      (fun sl ->
        let g = whole.groups.(sl) in
        let p = if last.(sl) < 0 then 0 else s.ss_pos.(last.(sl)) + 1 in
        let q = ref p in
        while !q < Array.length g && g.(!q) < hi do incr q done;
        Array.sub g p (!q - p))
      owners
  in
  let in_merge sl = last.(sl) >= 0 || wslot.(sl) >= 0 in
  let rows = Array.of_list (List.filter in_merge (Array.to_list whole.m_slot)) in
  let w =
    {
      w_name = Printf.sprintf "e%d" e;
      blocks = Array.map (fun sl -> whole.blocks.(sl)) owners;
      groups;
      seq_slots;
      m_durable = Array.map (fun sl -> last.(sl)) rows;
      m_slot = Array.map (fun sl -> wslot.(sl)) rows;
    }
  in
  Array.iter (fun sl -> wslot.(sl) <- -1) owners;
  w

let fail_setup what e =
  failwith ("crash explore: " ^ what ^ ": " ^ Errno.to_string e)

(* Per-domain scratch device, reused across states (restore is
   O(blocks the previous state dirtied)). *)
let scratch_slot : (int * Memdisk.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch ~params =
  let slot = Domain.DLS.get scratch_slot in
  match !slot with
  | Some (nb, c) when nb = params.Memdisk.num_blocks -> c
  | Some _ | None ->
      let c = Memdisk.create ~params () in
      Memdisk.set_time_model c false;
      slot := Some (params.Memdisk.num_blocks, c);
      c

let make_base ~params ~setup brand =
  let disk = scratch ~params in
  Memdisk.restore disk
    (Memdisk.blank_image ~block_size:params.Memdisk.block_size
       ~num_blocks:params.Memdisk.num_blocks);
  let dev = Memdisk.dev disk in
  (match Fs.mkfs brand dev with Ok () -> () | Error e -> fail_setup "mkfs" e);
  (match Fs.mount brand dev with
  | Error e -> fail_setup "mount" e
  | Ok (Fs.Boxed ((module F), t) as fsb) -> (
      setup fsb;
      match F.unmount t with
      | Ok () -> ()
      | Error e -> fail_setup "unmount" e));
  Memdisk.snapshot disk

let record_session ~params ~base ~ops brand =
  let disk = scratch ~params in
  Memdisk.restore disk base;
  let wlog = Wlog.create (Memdisk.dev disk) in
  let dev = Wlog.dev wlog in
  match
    try `Mounted (Fs.mount brand dev) with Klog.Panic m -> `Panic m
  with
  | `Panic m -> failwith ("crash explore: mount panic: " ^ m)
  | `Mounted (Error e) -> fail_setup "mount" e
  | `Mounted (Ok fsb) ->
      let baseline = Memdisk.snapshot disk in
      Wlog.set_recording wlog true;
      (* The workload runs until it finishes or the model panics;
         either way, abandoning the instance here is the crash. *)
      (try ops fsb ~closed_epochs:(fun () -> Wlog.epochs wlog)
       with Klog.Panic _ -> ());
      let entries, n_epochs = Wlog.take wlog in
      let whole, pos = whole_of entries in
      {
        ss_baseline = baseline;
        ss_entries = entries;
        ss_epochs = n_epochs;
        ss_whole = whole;
        ss_pos = pos;
        ss_pairs = Array.mapi (fun i (e : Wlog.entry) -> (e.Wlog.w_block, i)) entries;
        ss_digests = None;
      }

(* ------------------------------------------------------------------ *)
(* Enumerate                                                           *)
(* ------------------------------------------------------------------ *)

(* A crash-state spec: the final persisted content choice per block
   ([choices] maps block -> log index whose data survives; blocks
   absent keep the baseline), plus at most one torn write — the first
   [len] bytes of log entry [idx] land on top of the otherwise-chosen
   content of its block. Specs respect per-block write order by
   construction: each block persists a prefix of its own writes. *)
type spec = {
  label : string;
  choices : (int * int) array; (* (block, entry idx), sorted by block *)
  torn : (int * int) option; (* (entry idx, persisted bytes) *)
}

type state_spec = spec

let spec_label (s : state_spec) = s.label
let spec_choices (s : state_spec) = Array.copy s.choices
let spec_torn (s : state_spec) = s.torn

(* Materialize a spec's [choices] from per-block persisted counts: one
   pass over the window's merge, where count [c > 0] for window slot
   [j] keeps that block's first [c] window writes (content = the
   [c]-th) and count [0] falls back to the durable prefix (or
   baseline). Counted first, so the array is built at its size. *)
let choices_of s w counts =
  let pick k =
    let j = w.m_slot.(k) in
    if j >= 0 && counts.(j) > 0 then w.groups.(j).(counts.(j) - 1)
    else w.m_durable.(k)
  in
  let rows = Array.length w.m_slot in
  let n = ref 0 in
  for k = 0 to rows - 1 do
    if pick k >= 0 then incr n
  done;
  let choices = Array.make !n (0, 0) in
  let o = ref 0 in
  for k = 0 to rows - 1 do
    let i = pick k in
    if i >= 0 then begin
      choices.(!o) <- s.ss_pairs.(i);
      incr o
    end
  done;
  choices

(* Dedup on the final content assignment: two specs from different
   windows that persist the same writes are one crash state. Every
   pair comes from [ss_pairs], so its entry index decides it, and the
   hash folds in every one. *)
module Seen = Hashtbl.Make (struct
  type t = (int * int) array * (int * int) option

  let equal (c, t) (c', t') =
    Option.equal (fun (i, n) (i', n') -> i = i' && n = n') t t'
    && Array.length c = Array.length c'
    && Array.for_all2 (fun (_, i) (_, i') -> i = i') c c'

  let hash (c, t) =
    let h = match t with None -> 0 | Some (i, n) -> (i * 65599) + n + 1 in
    Hashtbl.hash (Array.fold_left (fun h (_, i) -> (h * 65599) + i) h c)
end)

let enumerate_session ~seed ~max_states s =
  let entries = s.ss_entries in
  let whole = s.ss_whole in
  let seen = Seen.create 256 in
  let specs = ref [] in
  let n_specs = ref 0 in
  let exception Full in
  let fresh choices torn =
    let key = (choices, torn) in
    (not (Seen.mem seen key)) && (Seen.add seen key (); true)
  in
  (* Labels are formatted only here, for the states kept. *)
  let keep label choices torn =
    specs := { label; choices; torn } :: !specs;
    incr n_specs;
    if !n_specs >= max_states then raise_notrace Full
  in
  let half =
    if Array.length entries > 0 then Bytes.length entries.(0).Wlog.w_data / 2
    else 2048
  in
  let systematic w =
    let counts = Array.make (Array.length w.blocks) 0 in
    (* Global prefixes: the classic in-order power cut, one state per
       cut point. Walk the window in seq order, persisting one more
       write each step. *)
    let c = choices_of s w counts in
    if fresh c None then keep (w.w_name ^ "/cut0") c None;
    Array.iteri
      (fun n j ->
        counts.(j) <- counts.(j) + 1;
        let c = choices_of s w counts in
        if fresh c None then
          keep (Printf.sprintf "%s/cut%d" w.w_name (n + 1)) c None)
      w.seq_slots;
    (* Drop-tail: persist everything except the tail of one block's
       writes — the reordered-commit shape (e.g. a journal payload
       block lost while the later commit block made it). Plus a torn
       variant where the first dropped write half-persisted. The cuts
       left every count full. *)
    Array.iteri
      (fun j g ->
        for kept = 0 to Array.length g - 1 do
          counts.(j) <- kept;
          let c = choices_of s w counts in
          if fresh c None then
            keep
              (Printf.sprintf "%s/drop blk %d w%d" w.w_name w.blocks.(j) kept)
              c None;
          let torn = Some (g.(kept), half) in
          if fresh c torn then
            keep
              (Printf.sprintf "%s/torn blk %d w%d" w.w_name w.blocks.(j) kept)
              c torn
        done;
        counts.(j) <- Array.length g)
      w.groups
  in
  (try
     if max_states <= 0 then raise_notrace Full;
     (* Barrier-honouring windows: one per sync-delimited epoch, built
        when the enumeration reaches it. Epochs are runs of the log. *)
     let last = Array.make (Array.length whole.blocks) (-1) in
     let wslot = Array.make (Array.length whole.blocks) (-1) in
     let lo = ref 0 in
     for e = 0 to s.ss_epochs do
       let hi = ref !lo in
       while !hi < Array.length entries && entries.(!hi).Wlog.w_epoch = e do
         incr hi
       done;
       if !hi > !lo then
         systematic (epoch_window s e ~lo:!lo ~hi:!hi ~last ~wslot);
       for i = !lo to !hi - 1 do
         last.(whole.seq_slots.(i)) <- i
       done;
       lo := !hi
     done;
     (* The write-back-cache window: a disk that acknowledged every sync
        without flushing may reorder the whole log — the scenario the
        paper's transactional checksum exists for. *)
     systematic whole;
     (* Seeded random per-block prefixes over the whole-log window top
        the enumeration up to [max_states] (reaching it raises [Full]).
        Every attempt makes its draws, kept or not. *)
     if Array.length whole.blocks > 0 then begin
       let rng = Prng.create (seed lxor 0xC4A54) in
       let counts = Array.make (Array.length whole.blocks) 0 in
       let attempts = ref 0 in
       while !attempts < 16 * max_states do
         incr attempts;
         Array.iteri
           (fun j g -> counts.(j) <- Prng.int rng (Array.length g + 1))
           whole.groups;
         let torn =
           if Prng.int rng 4 = 0 then begin
             (* Tear the first unpersisted write of one random block. *)
             let j = Prng.int rng (Array.length whole.blocks) in
             let g = whole.groups.(j) in
             if counts.(j) < Array.length g then
               Some (g.(counts.(j)), 1 + Prng.int rng (max 1 ((half * 2) - 1)))
             else None
           end
           else None
         in
         let c = choices_of s whole counts in
         if fresh c torn then
           keep (Printf.sprintf "all/rand%d" !attempts) c torn
       done
     end
   with Full -> ());
  List.rev !specs

(* ------------------------------------------------------------------ *)
(* Spec geometry                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-block persisted-prefix counts over the whole-log window (exact:
   every spec persists a per-block prefix by construction). *)
let counts_of s (spec : spec) =
  let counts = Array.make (Array.length s.ss_whole.blocks) 0 in
  Array.iter
    (fun (_, i) -> counts.(s.ss_whole.seq_slots.(i)) <- s.ss_pos.(i) + 1)
    spec.choices;
  counts

(* Fold [f] over the spec's dropped frontier: the first write each
   block drops, then the torn write. *)
let fold_dropped s counts (spec : spec) f acc =
  let acc = ref acc in
  Array.iteri
    (fun j c ->
      let g = s.ss_whole.groups.(j) in
      if c < Array.length g then acc := f !acc g.(c))
    counts;
  match spec.torn with Some (i, _) -> f !acc i | None -> !acc

(* The earliest epoch of any write the spec drops or tears;
   [ss_epochs] when it persists the whole log. *)
let first_dropped_epoch s counts spec =
  fold_dropped s counts spec
    (fun e i -> min e s.ss_entries.(i).Wlog.w_epoch)
    s.ss_epochs

(* The largest epoch E such that every write of epochs < E is fully
   persisted by the spec. All VFS activity from epochs < E is then
   durable in this state (anything later may be arbitrarily partial),
   which is exactly what a caller's durability oracle may assume. A
   whole-log reordering that dropped an early write scores E = 0: the
   lying write-back cache promised nothing. *)
let spec_epoch s spec = first_dropped_epoch s (counts_of s spec) spec

(* A barrier-honouring crash: no persisted write (torn included) from
   an epoch later than the first dropped write's epoch. An honest disk
   only issues epoch k+1 writes after every epoch-k write is durable,
   so persisting later-epoch writes while earlier ones are missing
   takes a lying write-back cache. *)
let spec_honest s (spec : spec) =
  let counts = counts_of s spec in
  let d = first_dropped_epoch s counts spec in
  let late i = s.ss_entries.(i).Wlog.w_epoch > d in
  let ok =
    ref (match spec.torn with Some (i, _) -> not (late i) | None -> true)
  in
  Array.iteri
    (fun j c ->
      for k = 0 to c - 1 do
        if late s.ss_whole.groups.(j).(k) then ok := false
      done)
    counts;
  !ok

(* Provenance of the earliest write the spec drops (or tears): the
   proximate cause a blast-radius campaign charges the crash to. *)
let spec_first_dropped s (spec : state_spec) =
  let seq i = s.ss_entries.(i).Wlog.w_seq in
  let best =
    fold_dropped s (counts_of s spec) spec
      (fun best i -> if best < 0 || seq i < seq best then i else best)
      (-1)
  in
  if best < 0 then None else Some s.ss_entries.(best).Wlog.w_prov

let entry_digests s =
  match s.ss_digests with
  | Some d -> d
  | None ->
      let d =
        Array.map
          (fun (e : Wlog.entry) -> Sha1.to_raw (Sha1.digest e.Wlog.w_data))
          s.ss_entries
      in
      s.ss_digests <- Some d;
      d

(* Content identity of the final disk state, relative to the (shared)
   baseline: the SHA-1 over the sorted (block, content-digest) pairs
   that differ from the baseline. Torn blocks hash their actual merged
   bytes; choices that rewrite a block with its baseline content are
   normalized away. Two specs from different workloads over the same
   base image collide exactly when they leave identical disks. *)
let spec_digest s (spec : spec) =
  let entries = s.ss_entries in
  let dig = entry_digests s in
  let torn_block, torn_bytes =
    match spec.torn with
    | None -> (-1, Bytes.empty)
    | Some (i, len) ->
        let e = entries.(i) in
        let b = e.Wlog.w_block in
        let under = ref (Memdisk.image_block s.ss_baseline b) in
        Array.iter
          (fun (b', i') -> if b' = b then under := entries.(i').Wlog.w_data)
          spec.choices;
        let cur = Bytes.copy !under in
        let len = min len (Bytes.length e.Wlog.w_data) in
        Bytes.blit e.Wlog.w_data 0 cur 0 len;
        (b, cur)
  in
  let parts = ref [] in
  Array.iter
    (fun (b, i) ->
      if
        b <> torn_block
        && not (Bytes.equal entries.(i).Wlog.w_data (Memdisk.image_block s.ss_baseline b))
      then parts := (b, dig.(i)) :: !parts)
    spec.choices;
  if
    torn_block >= 0
    && not (Bytes.equal torn_bytes (Memdisk.image_block s.ss_baseline torn_block))
  then parts := (torn_block, Sha1.to_raw (Sha1.digest torn_bytes)) :: !parts;
  let ctx = Sha1.init () in
  List.iter
    (fun (b, d) ->
      Sha1.feed ctx (Bytes.unsafe_of_string (Printf.sprintf "%d:" b));
      Sha1.feed ctx (Bytes.unsafe_of_string d))
    (List.sort compare !parts);
  Sha1.to_raw (Sha1.finalize ctx)

(* ------------------------------------------------------------------ *)
(* Check                                                               *)
(* ------------------------------------------------------------------ *)

type outcome = { viol : (kind * string) option; tc : bool }

(* Materialize a spec on the calling domain's scratch device: O(dirty)
   restore of the baseline plus one poke per chosen block. *)
let materialize ~params s spec =
  let disk = scratch ~params in
  Memdisk.restore disk s.ss_baseline;
  Array.iter
    (fun (b, i) -> Memdisk.poke disk b s.ss_entries.(i).Wlog.w_data)
    spec.choices;
  (match spec.torn with
  | None -> ()
  | Some (i, len) ->
      let e = s.ss_entries.(i) in
      let cur = Memdisk.peek disk e.Wlog.w_block in
      let len = min len (Bytes.length e.Wlog.w_data) in
      Bytes.blit e.Wlog.w_data 0 cur 0 len;
      Memdisk.poke disk e.Wlog.w_block cur);
  disk

let fsck_violation dev =
  match Iron_ext3.Fsck.run dev with
  | Error e -> Some (Fsck_unclean, "fsck: " ^ Errno.to_string e)
  | Ok rep when rep.Iron_ext3.Fsck.clean -> None
  | Ok rep ->
      let first =
        match
          List.find_opt
            (fun f -> f.Iron_ext3.Fsck.severity = `Error)
            rep.Iron_ext3.Fsck.findings
        with
        | Some f -> f.Iron_ext3.Fsck.message
        | None -> "errors"
      in
      Some (Fsck_unclean, first)

(* The one check skeleton: materialize the spec, remount (a panic or a
   refused mount ends the check), scan the kernel log for Tc
   detections, run [verify] (a failure is data loss and ends the check
   before unmount), unmount, and optionally fsck. *)
let check_with ~params ~brand ~fsck ~verify s spec =
  let disk = materialize ~params s spec in
  let dev = Memdisk.dev disk in
  (* Power is back: remount and hold the invariants up to the light. *)
  match (try `Mounted (Fs.mount brand dev) with Klog.Panic m -> `Panic m) with
  | `Panic m -> { viol = Some (Panic, "panic during recovery: " ^ m); tc = false }
  | `Mounted (Error e) ->
      { viol = Some (Unmountable, "mount: " ^ Errno.to_string e); tc = false }
  | `Mounted (Ok (Fs.Boxed ((module F), t) as fsb)) ->
      let tc =
        Klog.mentions (Klog.entries (F.klog t)) [ "checksum mismatch" ]
      in
      let viol =
        try
          match verify fsb with
          | Some d -> Some (Data_loss, d)
          | None -> (
              match F.unmount t with
              | Error e -> Some (Unmountable, "unmount: " ^ Errno.to_string e)
              | Ok () -> if fsck then fsck_violation dev else None)
        with Klog.Panic m -> Some (Panic, "panic while checking: " ^ m)
      in
      { viol; tc }

(* What a campaign's durability oracle asserts about one path in one
   crash state. [ex_allowed = None] leaves content unchecked (the path
   had un-synced data writes in flight). *)
type expect = {
  ex_path : string;
  ex_presence : [ `Present | `Absent | `Any ];
  ex_allowed : string list option;
}

let expect_failure (Fs.Boxed ((module F), t)) ex =
  let check_content ex size fit =
    if size = 0 then None
    else
      match F.open_ t ex.ex_path Fs.Rd with
      | Error e -> Some (ex.ex_path ^ ": open " ^ Errno.to_string e)
      | Ok fd ->
          let r =
            match F.read t fd ~off:0 ~len:size with
            | Ok got ->
                if List.mem (Bytes.to_string got) fit then None
                else
                  Some
                    (Printf.sprintf "%s: content outside the durable set"
                       ex.ex_path)
            | Error e -> Some (ex.ex_path ^ ": read " ^ Errno.to_string e)
          in
          ignore (F.close t fd);
          r
  in
  match F.stat t ex.ex_path with
  | Error e ->
      if ex.ex_presence = `Present then
        Some
          (Printf.sprintf "%s: durable file missing (stat %s)" ex.ex_path
             (Errno.to_string e))
      else None
  | Ok st -> (
      if ex.ex_presence = `Absent then
        Some (Printf.sprintf "%s: durably removed path present" ex.ex_path)
      else
        match ex.ex_allowed with
        | None -> None
        | Some cands ->
            if st.Fs.st_kind <> Fs.Regular then
              Some
                (Printf.sprintf "%s: not a regular file (%s)" ex.ex_path
                   (Fs.kind_to_string st.Fs.st_kind))
            else
              let size = st.Fs.st_size in
              let fit = List.filter (fun c -> String.length c = size) cands in
              if fit = [] then
                Some
                  (Printf.sprintf "%s: size %d outside the durable set"
                     ex.ex_path size)
              else check_content ex size fit)

let verify_expects expects fsb =
  let bad = ref None in
  List.iter (fun ex -> if !bad = None then bad := expect_failure fsb ex) expects;
  !bad

let check_spec ~params ~brand ~fsck ~expects s (spec : state_spec) =
  check_with ~params ~brand ~fsck
    ~verify:(verify_expects (expects ~epoch:(spec_epoch s spec)))
    s spec

type outcome_all = {
  oa_global : (kind * string) option;
  oa_failed : (string * string) list;
  oa_tc : bool;
}

(* The collect-all form: the verifier walks every expectation and never
   stops the check, so the volume is always unmounted. A panic during
   the walk or the unmount voids the walk. *)
let check_spec_all ~params ~brand ~expects s (spec : state_spec) =
  let failed = ref [] in
  let collect fsb =
    failed :=
      List.filter_map
        (fun ex ->
          Option.map (fun d -> (ex.ex_path, d)) (expect_failure fsb ex))
        (expects ~epoch:(spec_epoch s spec));
    None
  in
  let o = check_with ~params ~brand ~fsck:false ~verify:collect s spec in
  {
    oa_global = o.viol;
    oa_failed = (match o.viol with Some (Panic, _) -> [] | _ -> !failed);
    oa_tc = o.tc;
  }

(* ------------------------------------------------------------------ *)
(* Forensics: causal chains via greedy culprit minimization            *)
(* ------------------------------------------------------------------ *)

(* Probe budget per violation. The racing logs here are a few dozen
   writes over ~20 blocks, so real runs use a fraction of this; if a
   future workload blows the budget, the unprobed candidates are kept
   as (conservative, unminimized) culprits rather than silently
   dropped. *)
let probe_cap = 512

(* A block-type label per logged block, resolved eagerly against the
   pre-crash baseline (the scratch device is about to be reused by the
   probes). Only the ext3 family has a classifier to ask. *)
type forensics_ctx = (int, string) Hashtbl.t

let session_forensics ~params ~fsck s =
  let labels = Hashtbl.create 64 in
  if fsck then begin
    let disk = scratch ~params in
    Memdisk.restore disk s.ss_baseline;
    Array.iter
      (fun b ->
        Hashtbl.replace labels b
          (Iron_ext3.Classifier.classify (Memdisk.peek disk) b))
      s.ss_whole.blocks
  end;
  labels

let label_of ctx b = match Hashtbl.find_opt ctx b with Some l -> l | None -> "?"

let log_of ctx s =
  Array.to_list s.ss_entries
  |> List.map (fun (e : Wlog.entry) ->
         let p = e.Wlog.w_prov in
         {
           lg_seq = e.Wlog.w_seq;
           lg_block = e.Wlog.w_block;
           lg_epoch = e.Wlog.w_epoch;
           lg_label = label_of ctx e.Wlog.w_block;
           lg_t = e.Wlog.w_t;
           lg_op = p.Prov.op;
           lg_op_label = p.Prov.op_label;
           lg_txn = p.Prov.txn;
           lg_policy = p.Prov.policy;
           lg_role = p.Prov.role;
           lg_rule = p.Prov.rule;
         })

let role_word = function
  | "payload" -> "payload"
  | "desc" -> "descriptor"
  | "revoke" -> "revoke block"
  | "data" -> "ordered data"
  | r -> r

(* Greedy re-materialize-and-recheck: express the spec as per-block
   persisted-prefix counts over the whole-log window, then for each
   block with a dropped tail, persist that block fully and re-run the
   invariant check on the domain's scratch device (O(dirty) per probe).
   If the violation kind survives, the block was irrelevant and stays
   restored; if it disappears, the block's dropped tail is a culprit
   and is reverted. The surviving dropped set is the minimized culprit
   set; by induction the final state still exhibits the violation. *)
let explain_spec ~check ctx s (spec, vkind, detail) =
  let entries = s.ss_entries in
  let whole = s.ss_whole in
  let full j = Array.length whole.groups.(j) in
  let counts = counts_of s spec in
  let torn = ref spec.torn in
  let probes = ref 0 in
  let culprit_slots = ref [] in
  (* The whole-log merge lists the slots in block order. *)
  let candidates =
    List.filter (fun j -> counts.(j) < full j) (Array.to_list whole.m_slot)
  in
  List.iter
    (fun j ->
      if !probes >= probe_cap then culprit_slots := j :: !culprit_slots
      else begin
        let saved = counts.(j) in
        let saved_torn = !torn in
        counts.(j) <- full j;
        (match !torn with
        | Some (i, _) when entries.(i).Wlog.w_block = whole.blocks.(j) ->
            torn := None
        | _ -> ());
        let probe =
          { label = spec.label; choices = choices_of s whole counts; torn = !torn }
        in
        incr probes;
        let o = check probe in
        let still =
          match o.viol with Some (k, _) -> k = vkind | None -> false
        in
        if not still then begin
          (* Restoring this block's dropped tail changed the outcome:
             it is part of the cause. Keep it dropped. *)
          counts.(j) <- saved;
          torn := saved_torn;
          culprit_slots := j :: !culprit_slots
        end
      end)
    candidates;
  let culprit_of j =
    let i0 = whole.groups.(j).(counts.(j)) in
    let e = entries.(i0) in
    let p = e.Wlog.w_prov in
    {
      cu_block = whole.blocks.(j);
      cu_label = label_of ctx whole.blocks.(j);
      cu_role = p.Prov.role;
      cu_txn = p.Prov.txn;
      cu_policy = p.Prov.policy;
      cu_epoch = e.Wlog.w_epoch;
      cu_op = p.Prov.op;
      cu_op_label = p.Prov.op_label;
      cu_rule = p.Prov.rule;
      cu_first_seq = e.Wlog.w_seq;
      cu_dropped = full j - counts.(j);
      cu_torn =
        (match !torn with
        | Some (i, _) -> entries.(i).Wlog.w_block = whole.blocks.(j)
        | None -> false);
    }
  in
  let culprits = List.rev_map culprit_of !culprit_slots in
  (* Which journal transactions got their commit record persisted in
     the final (minimized) state? A culprit journal write belonging to
     such a transaction is the §6.1 shape: the commit made it out, its
     payload did not, and replay trusted the stale journal content. *)
  let committed = Hashtbl.create 8 in
  Array.iteri
    (fun j c ->
      for p = 0 to c - 1 do
        let e = entries.(whole.groups.(j).(p)) in
        let pr = e.Wlog.w_prov in
        if pr.Prov.role = "commit" && pr.Prov.txn >= 0 then
          Hashtbl.replace committed pr.Prov.txn ()
      done)
    counts;
  let orphaned =
    List.filter
      (fun c ->
        (c.cu_role = "payload" || c.cu_role = "desc" || c.cu_role = "revoke")
        && c.cu_txn >= 0
        && Hashtbl.mem committed c.cu_txn)
      culprits
  in
  let summary =
    if orphaned <> [] then begin
      let seen = Hashtbl.create 4 in
      String.concat "; "
        (List.filter_map
           (fun o ->
             if Hashtbl.mem seen (o.cu_txn, o.cu_role) then None
             else begin
               Hashtbl.replace seen (o.cu_txn, o.cu_role) ();
               Some
                 (Printf.sprintf
                    "commit record of txn %d persisted without its %s (epoch %d)"
                    o.cu_txn (role_word o.cu_role) o.cu_epoch)
             end)
           orphaned)
    end
    else if culprits = [] then
      "no dropped writes implicated; state equals the full log"
    else
      Printf.sprintf "%d dropped write(s) across %d block(s) produced %s"
        (List.fold_left (fun n c -> n + c.cu_dropped) 0 culprits)
        (List.length culprits) (kind_to_string vkind)
  in
  {
    ch_state = spec.label;
    ch_kind = vkind;
    ch_detail = detail;
    ch_probes = !probes;
    ch_culprits = culprits;
    ch_summary = summary;
  }

(* ------------------------------------------------------------------ *)
(* The fixed-workload explorer                                         *)
(* ------------------------------------------------------------------ *)

(* The volume, and the workload on it: [durable_files] fsync'd files
   in the base image, then [racing_files] files created, written,
   fsync'd and closed while the recorder runs. *)
let num_blocks = 2048
let durable_files = 4
let racing_files = 4

(* Deterministic file contents; sizes span one to two blocks so each
   racing commit journals several payload blocks. *)
let content tag i =
  Printf.sprintf "%s-%d-%s" tag i
    (String.make
       (900 + (i * 1777 mod 6200))
       (Char.chr (Char.code 'a' + (i mod 26))))

(* Each durable file is fsync'd and [make_base] unmounts cleanly
   (checkpointed), so every durable byte is home before the crash
   window opens. *)
let write_durable durable (Fs.Boxed ((module F), t)) =
  List.iter
    (fun (path, data) ->
      match F.creat t path with
      | Error e -> fail_setup path e
      | Ok fd ->
          (match F.write t fd ~off:0 (Bytes.of_string data) with
          | Ok _ -> ()
          | Error e -> fail_setup path e);
          (match F.fsync t fd with Ok () -> () | Error e -> fail_setup path e);
          ignore (F.close t fd))
    durable

(* Each racing VFS call runs under a Prov op scope, so every write the
   recorder journals carries the workload step that caused it (plus
   whatever txn/role the journal layer scopes on the way down). *)
let race (Fs.Boxed ((module F), t)) ~closed_epochs:_ =
  let opi = ref 0 in
  let vfs label f =
    let i = !opi in
    incr opi;
    Prov.with_op i label f
  in
  for i = 0 to racing_files - 1 do
    let path = Printf.sprintf "/racing%d" i in
    match vfs ("creat " ^ path) (fun () -> F.creat t path) with
    | Error _ -> ()
    | Ok fd ->
        ignore
          (vfs ("write " ^ path) (fun () ->
               F.write t fd ~off:0
                 (Bytes.of_string (content "racing" (100 + i)))));
        (match vfs ("fsync " ^ path) (fun () -> F.fsync t fd) with
        | Ok () | Error _ -> ());
        ignore (vfs ("close " ^ path) (fun () -> F.close t fd))
  done

(* The explorer's verifier: every durable (fsync'd-before-the-window)
   file must read back exactly. *)
let verify_durable durable (Fs.Boxed ((module F), t)) =
  let missing = ref None in
  List.iter
    (fun (path, want) ->
      if !missing = None then
        match F.open_ t path Fs.Rd with
        | Error e -> missing := Some (path ^ ": open " ^ Errno.to_string e)
        | Ok fd ->
            (match F.read t fd ~off:0 ~len:(String.length want) with
            | Ok got when Bytes.to_string got = want -> ()
            | Ok _ -> missing := Some (path ^ ": content mismatch")
            | Error e -> missing := Some (path ^ ": read " ^ Errno.to_string e));
            ignore (F.close t fd))
    durable;
  !missing

let explore ?(jobs = 1) ?(seed = 7) ?(max_states = 1000) ?(forensics = false)
    ?obs brand =
  let params =
    { Memdisk.default_params with Memdisk.num_blocks; seed = seed lxor 0x1207 }
  in
  let in_span name f =
    match obs with
    | None -> f ()
    | Some o -> Obs.span o ~subsystem:"crash" name f
  in
  let fs = Fs.brand_name brand in
  let fsck = offline_fsck brand in
  let durable =
    List.init durable_files (fun i ->
        (Printf.sprintf "/durable%d" i, content "durable" i))
  in
  let session =
    in_span "record" (fun () ->
        (* With an obs context, install it ambiently for the record
           phase (always the calling domain, so -j independent): the
           journal spans of the racing workload then land on the same
           timeline as the recorded writes. *)
        let go () =
          let base = make_base ~params ~setup:(write_durable durable) brand in
          record_session ~params ~base ~ops:race brand
        in
        match obs with None -> go () | Some o -> Obs.with_ambient o go)
  in
  let specs =
    in_span "enumerate" (fun () -> enumerate_session ~seed ~max_states session)
  in
  let check =
    check_with ~params ~brand ~fsck ~verify:(verify_durable durable) session
  in
  let outcomes = in_span "check" (fun () -> Pool.map_jobs ~jobs check specs) in
  let viols =
    List.filter_map
      (fun (spec, o) ->
        Option.map (fun (k, detail) -> (spec, k, detail)) o.viol)
      (List.combine specs outcomes)
  in
  let violations =
    List.map (fun (spec, k, detail) -> { state = spec.label; v_kind = k; detail }) viols
  in
  let tc_detected =
    List.fold_left (fun n o -> if o.tc then n + 1 else n) 0 outcomes
  in
  let states = List.length specs in
  let chains, log =
    if not forensics then ([], [])
    else
      in_span "forensics" (fun () ->
          let ctx = session_forensics ~params ~fsck session in
          let chains =
            Pool.map_jobs ~jobs (explain_spec ~check ctx session) viols
          in
          (chains, log_of ctx session))
  in
  (match obs with
  | None -> ()
  | Some o ->
      Obs.add o "crash.states_explored" states;
      Obs.add o "crash.violations" (List.length violations);
      Obs.add o "crash.tc_detected" tc_detected;
      List.iter
        (fun v ->
          Obs.incr o ("crash.violation." ^ kind_to_string v.v_kind))
        violations;
      if forensics then begin
        Obs.add o "crash.forensics.chains" (List.length chains);
        Obs.add o "crash.forensics.probes"
          (List.fold_left (fun n c -> n + c.ch_probes) 0 chains);
        Obs.add o "crash.forensics.culprits"
          (List.fold_left (fun n c -> n + List.length c.ch_culprits) 0 chains)
      end);
  {
    fs;
    log_len = session_log_len session;
    rep_epochs = session.ss_epochs;
    states;
    violations;
    tc_detected;
    chains;
    log;
  }

let pp_report fmt r =
  Format.fprintf fmt
    "%s: %d crash states (log: %d writes, %d epochs) -> %d violations \
     (unmountable %d, data-loss %d, fsck %d, panic %d), Tc detections %d"
    r.fs r.states r.log_len r.rep_epochs
    (List.length r.violations)
    (count r Unmountable) (count r Data_loss) (count r Fsck_unclean)
    (count r Panic) r.tc_detected;
  let shown = ref 0 in
  List.iter
    (fun v ->
      if !shown < 5 then begin
        incr shown;
        Format.fprintf fmt "@.  [%s] %s: %s" (kind_to_string v.v_kind) v.state
          v.detail
      end)
    r.violations;
  if List.length r.violations > 5 then
    Format.fprintf fmt "@.  ... and %d more" (List.length r.violations - 5)

let pp_culprit fmt c =
  let mech = if c.cu_torn then "torn" else "dropped" in
  Format.fprintf fmt "blk %d (%s) %s x%d from w%d epoch %d" c.cu_block
    c.cu_label mech c.cu_dropped c.cu_first_seq c.cu_epoch;
  if c.cu_txn >= 0 then begin
    Format.fprintf fmt ", txn %d" c.cu_txn;
    if c.cu_policy <> "" then Format.fprintf fmt " [%s]" c.cu_policy;
    if c.cu_role <> "" then Format.fprintf fmt " role %s" c.cu_role
  end
  else if c.cu_role <> "" then Format.fprintf fmt ", role %s" c.cu_role;
  if c.cu_op >= 0 then Format.fprintf fmt ", op %d (%s)" c.cu_op c.cu_op_label;
  if c.cu_rule <> "" then Format.fprintf fmt ", fault %s" c.cu_rule

let pp_chain fmt ch =
  Format.fprintf fmt "[%s] %s: %s@.  cause: %s (%d probes)"
    (kind_to_string ch.ch_kind) ch.ch_state ch.ch_detail ch.ch_summary
    ch.ch_probes;
  List.iter
    (fun c -> Format.fprintf fmt "@.  culprit: %a" pp_culprit c)
    ch.ch_culprits

let pp_timeline ?(chains = []) fmt r =
  let flagged =
    let seqs = Hashtbl.create 8 in
    List.iter
      (fun ch ->
        List.iter (fun c -> Hashtbl.replace seqs c.cu_first_seq ()) ch.ch_culprits)
      chains;
    fun seq -> Hashtbl.mem seqs seq
  in
  Format.fprintf fmt "%s write log: %d writes, %d epochs" r.fs r.log_len
    r.rep_epochs;
  let epoch = ref (-1) in
  List.iter
    (fun l ->
      if l.lg_epoch <> !epoch then begin
        epoch := l.lg_epoch;
        Format.fprintf fmt "@.-- epoch %d --" l.lg_epoch
      end;
      Format.fprintf fmt "@.%s w%-4d blk %-5d %-12s" 
        (if flagged l.lg_seq then "!!" else "  ")
        l.lg_seq l.lg_block l.lg_label;
      if l.lg_txn >= 0 then begin
        Format.fprintf fmt " txn %d" l.lg_txn;
        if l.lg_policy <> "" then Format.fprintf fmt " [%s]" l.lg_policy;
        if l.lg_role <> "" then Format.fprintf fmt " %s" l.lg_role
      end
      else if l.lg_role <> "" then Format.fprintf fmt " %s" l.lg_role;
      if l.lg_op >= 0 then Format.fprintf fmt " <- op %d %s" l.lg_op l.lg_op_label;
      if l.lg_rule <> "" then Format.fprintf fmt " !fault %s" l.lg_rule)
    r.log
