(** Crash-state exploration: systematic enumeration of the disk states
    a power cut could leave behind, in the style of bounded black-box
    crash testing (CrashMonkey / B3).

    The old power-cut suite modelled a crash as an in-order prefix of
    the write stream ([Fault.After n]). Real disks are weaker: within
    a sync-delimited epoch they may persist {e any subset} of the
    issued writes (respecting per-block write order), may tear a block
    in half, and a write-back cache that acknowledges syncs without
    flushing extends that reorder window across the whole run. The
    transactional-checksum feature (Tc, paper §6.1) exists precisely
    because of this: a commit block that "arrives" before its payload
    turns journal replay into garbage unless the mismatch is detected.

    One pipeline serves every caller, through the session API below:

    + {!make_base} builds the pre-workload image (mkfs, the caller's
      sync'd setup, clean unmount);
    + {!record_session} records the caller's workload through a
      {!Wlog} device on top of a {!Iron_disk.Memdisk} device, and
      builds the log's whole-log geometry once;
    + {!enumerate_session} enumerates crash-state specs per reorder
      window — every sync-delimited epoch (barriers honoured) plus the
      whole log (write-back cache that lied about every sync). Within a
      window: global prefixes, per-block dropped write tails, torn
      variants of the first dropped write, and seeded random per-block
      prefixes, deduplicated by final disk content, bounded by
      [max_states];
    + one check skeleton materializes each state cheaply — O(dirty)
      [Memdisk.restore] of the baseline plus one poke per chosen block
      — remounts, scans the kernel log for Tc detections, runs the
      caller's verification, unmounts and (ext3 family) runs
      [Fsck.run]. {!check_spec} stops at the first failure;
      {!check_spec_all} collects every failed path.

    {!explore} is the fixed-workload client behind [iron crash]: its
    base holds fsync'd durable files, its session races more files,
    and every state must mount, recover without panic, keep every
    durable file intact and pass fsck. The fuzzing and traffic
    campaigns are the other clients. Checks fan out over
    {!Iron_util.Pool} with one scratch device per worker domain; every
    report is byte-identical for any [jobs]. *)

type kind = Unmountable | Data_loss | Fsck_unclean | Panic

val kind_to_string : kind -> string

type violation = {
  state : string;  (** which crash state, e.g. ["all/drop blk 301 w1"] *)
  v_kind : kind;
  detail : string;
}

(** {2 Causal forensics}

    When [explore ~forensics:true] finds a violation it asks {e which
    writes did it}: the crash-state spec is re-expressed as per-block
    persisted-prefix counts over the whole log, and each dropped
    suffix is greedily restored and the state re-checked (O(dirty) per
    probe via [Memdisk.restore]). Suffixes whose restoration leaves the
    violation standing are irrelevant; the rest form a minimized
    culprit set. Each culprit carries the provenance its first dropped
    write was recorded with ({!Wlog.entry.w_prov}): originating
    workload op, journal transaction and commit policy, block role,
    epoch, and any fault rule that fired. *)

type culprit = {
  cu_block : int;
  cu_label : string;  (** block type from the gray-box classifier *)
  cu_role : string;
      (** journal role of the first dropped write: ["payload"],
          ["desc"], ["commit"], ["checkpoint"], ["data"], ... *)
  cu_txn : int;  (** journal transaction id; [-1] outside any txn *)
  cu_policy : string;  (** commit policy, e.g. ["ordered+tc"] *)
  cu_epoch : int;  (** sync-delimited epoch of the first dropped write *)
  cu_op : int;  (** originating workload op index; [-1] if none *)
  cu_op_label : string;  (** e.g. ["write /racing2"] *)
  cu_rule : string;  (** fault rule that fired on the op, or [""] *)
  cu_first_seq : int;  (** w_seq of the first dropped write *)
  cu_dropped : int;  (** how many writes to this block were dropped *)
  cu_torn : bool;  (** the first dropped write was torn, not dropped *)
}

type chain = {
  ch_state : string;  (** the violating crash state's label *)
  ch_kind : kind;
  ch_detail : string;
  ch_probes : int;  (** re-materialize-and-recheck probes spent *)
  ch_culprits : culprit list;  (** minimized, sorted by block *)
  ch_summary : string;
      (** one-line root cause, e.g. ["commit record of txn 7 persisted
          without its payload (epoch 3)"] *)
}

(** One recorded write, for the merged timeline ([iron explain]). *)
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
  log_len : int;  (** recorded writes in the crash window *)
  rep_epochs : int;  (** sync-delimited epochs in the log *)
  states : int;  (** distinct crash states materialized and checked *)
  violations : violation list;
  tc_detected : int;
      (** states where recovery refused a transaction on a
          transactional-checksum mismatch — the detections Tc buys *)
  chains : chain list;
      (** one per violation, in violation order; [[]] unless
          [~forensics:true] *)
  log : logged list;
      (** the full recorded write log with provenance; [[]] unless
          [~forensics:true] *)
}

val count : report -> kind -> int
(** Violations of one kind. *)

val explore :
  ?jobs:int ->
  ?seed:int ->
  ?max_states:int ->
  ?forensics:bool ->
  ?obs:Iron_obs.Obs.t ->
  Iron_vfs.Fs.brand ->
  report
(** [explore brand] runs the fixed workload through the session
    pipeline on a 2048-block volume: four fsync'd durable files in the
    base image, four racing files (create, write, fsync, close, each
    op under its {!Iron_obs.Prov} scope) recorded. Defaults: [jobs =
    1], [seed = 7], [max_states = 1000] (systematic states first,
    seeded random per-block prefixes top up to the bound), [forensics
    = false]. With [~obs] the run bumps [crash.states_explored],
    [crash.violations], [crash.tc_detected] and per-kind counters, and
    wraps the phases in [crash.*] spans. With [~forensics:true] every
    violation is minimized to a culprit set (adding
    [crash.forensics.*] counters and a [crash.forensics] span) and the
    provenance-tagged write log is kept in the report. Deterministic:
    the report — including chains and log — is a pure function of
    [(brand, seed, max_states, forensics)] — [jobs] cannot change
    it. *)

val offline_fsck : Iron_vfs.Fs.brand -> bool
(** Whether a brand's volumes get the offline cross-check
    ({!Iron_ext3.Fsck.run}): the ext3 family (ext3, ixt3,
    ext3-writeback, ext3-data). *)

(** {2 Per-workload sessions}

    The pipeline's steps, one workload at a time; {!explore}, the
    fuzzing campaign ({!Iron_fuzz}) and the traffic simulator's
    blast-radius phase all run on them. The caller supplies the setup,
    the workload and the durability oracle. {!spec_digest} gives each
    state a baseline-relative content identity for cross-workload
    dedup, {!spec_epoch} the largest epoch whose VFS activity is
    provably durable in it, and {!spec_honest} whether a
    barrier-honouring disk can produce it. *)

type session
(** One recorded workload: frozen baseline, write log and its
    geometry. Everything but {!spec_digest}'s cache is immutable after
    {!record_session}, so any number of domains may enumerate, check
    and explain one session at once; {!spec_digest} belongs to one job
    at a time. *)

val session_log_len : session -> int
val session_epochs : session -> int

val session_entries : session -> Wlog.entry array
(** The recorded write log, in issue order. A fresh array; the
    entries' [w_data] buffers are shared and must not be mutated. *)

val session_log_bytes : session -> int
(** Payload bytes the session's write log retains — the recorder's
    buffers move here wholesale ({!Iron_crash.Wlog.take}), so this is
    exactly one workload's crash-exploration residency. Campaigns pin
    their peak per-job residency with it. *)

val make_base :
  params:Iron_disk.Memdisk.params ->
  setup:(Iron_vfs.Fs.boxed -> unit) ->
  Iron_vfs.Fs.brand ->
  Iron_disk.Memdisk.image
(** mkfs on a blank volume, run [setup] (which must leave the volume
    sync'd), cleanly unmount, freeze. Runs on the calling domain's
    scratch device; the frozen image is shareable across domains.
    @raise Failure if mkfs/mount/setup/unmount fails. *)

val record_session :
  params:Iron_disk.Memdisk.params ->
  base:Iron_disk.Memdisk.image ->
  ops:(Iron_vfs.Fs.boxed -> closed_epochs:(unit -> int) -> unit) ->
  Iron_vfs.Fs.brand ->
  session
(** Restore [base] on the per-domain scratch device, remount (its
    superblock writes land before the snapshot), freeze the session
    baseline, then record [ops] through a {!Wlog}. [closed_epochs]
    reads the recorder's epoch counter, so the workload driver can tag
    its durability expectations with the epoch each [fsync]/[sync]
    closed. A model panic during [ops] simply ends the recording —
    abandoning the instance is the crash. The log's geometry (the
    whole-log window, each write's block slot and position) is built
    here, once, for every later step. *)

type state_spec
(** One crash-state spec of a session. *)

val spec_label : state_spec -> string

val spec_choices : state_spec -> (int * int) array
(** The content each block persists: [(block, i)] pairs, sorted by
    block, where [i] indexes {!session_entries} and names the write
    whose data the block ends with. Blocks absent keep the session
    baseline. A fresh array. *)

val spec_torn : state_spec -> (int * int) option
(** The torn write, if any: [(i, len)] lands the first [len] bytes of
    entry [i] on top of its block's otherwise-chosen content. *)

val enumerate_session :
  seed:int -> max_states:int -> session -> state_spec list
(** Systematic states per reorder window (every epoch in order, then
    the whole log): the global prefix cuts, then each block's dropped
    write tails, each with a torn variant of its first dropped write.
    Then seeded random per-block prefixes over the whole log, some
    with a torn write, up to [16 * max_states] attempts. A candidate
    that persists the same [(spec_choices, spec_torn)] value as an
    earlier one is dropped, so no two specs of a session persist the
    same writes.

    The cap contract: for [k <= k'], [enumerate_session ~max_states:k]
    is a prefix of [enumerate_session ~max_states:k'] at the same seed,
    and holds at most [k] specs ([[]] for [k <= 0]).

    Cost: enumeration stops as soon as [max_states] specs are held, and
    builds an epoch's window only when it gets there. A candidate costs
    one pass over its window's block-ordered merge of durable prefix
    and window writes, plus a hash probe; only a kept spec gets a
    label. Work so follows the candidates tried before the cap, not log
    length times windows. *)

val spec_epoch : session -> state_spec -> int
(** The largest [E] such that every recorded write of epochs [< E] is
    persisted by this spec. All VFS activity from epochs [< E] is
    durable in this state; anything later may be arbitrarily partial.
    Whole-log reorderings that drop early writes score [0] — the lying
    write-back cache promised nothing. *)

val spec_honest : session -> state_spec -> bool
(** Whether the spec is producible by a barrier-honouring disk: no
    persisted write (torn included) belongs to an epoch later than the
    first dropped write's epoch. An honest disk only issues the next
    epoch's writes after the previous epoch is durable, so a state
    that keeps a late-epoch write while dropping an earlier one takes
    a lying write-back cache (the §6.1 scenario). Every epoch-window
    state and every whole-log {e cut} is honest; whole-log drops and
    random prefixes generally are not. *)

val spec_digest : session -> state_spec -> string
(** Raw SHA-1 (20 bytes) of the final disk content relative to the
    session baseline, normalized (baseline-identical rewrites ignored,
    torn blocks hashed by their merged bytes). Two specs over the same
    base image collide iff they leave identical disks, so a campaign
    can dedup crash states {e across} workloads. *)

(** What a durability oracle asserts about one path in one crash
    state. [ex_allowed = None] leaves content unchecked (the path had
    un-synced data writes in flight). *)
type expect = {
  ex_path : string;
  ex_presence : [ `Present | `Absent | `Any ];
  ex_allowed : string list option;
}

type outcome = { viol : (kind * string) option; tc : bool }

val check_spec :
  params:Iron_disk.Memdisk.params ->
  brand:Iron_vfs.Fs.brand ->
  fsck:bool ->
  expects:(epoch:int -> expect list) ->
  session ->
  state_spec ->
  outcome
(** Materialize the spec on the per-domain scratch device, remount, check
    mount/panic invariants and [expects ~epoch:(spec_epoch _ spec)],
    unmount, and (with [~fsck:true]) cross-check with the offline
    checker. The first failed expectation reports as {!Data_loss} and
    ends the check before unmount. *)

(** The multi-tenant check outcome: {e every} failed expectation, so a
    blast-radius campaign can attribute each loss to the tenant owning
    the path. [oa_global] carries mount-level trouble (panic,
    unmountable, failed unmount); a panic after mount voids the
    per-path walk ([oa_failed = []]) but keeps [oa_tc]. *)
type outcome_all = {
  oa_global : (kind * string) option;
  oa_failed : (string * string) list;  (** (path, detail), in expect order *)
  oa_tc : bool;
}

val check_spec_all :
  params:Iron_disk.Memdisk.params ->
  brand:Iron_vfs.Fs.brand ->
  expects:(epoch:int -> expect list) ->
  session ->
  state_spec ->
  outcome_all
(** The same check skeleton as {!check_spec}, without fsck, walking
    every expectation instead of stopping at the first; the volume is
    unmounted whenever it mounted. *)

val spec_first_dropped :
  session -> state_spec -> Iron_obs.Prov.tag option
(** Provenance of the earliest write (by sequence) the spec drops or
    tears — the proximate cause a blast-radius campaign charges the
    crash state to. [None] when the spec persists the whole log. *)

type forensics_ctx
(** Block-type labels of a session's logged blocks. *)

val session_forensics :
  params:Iron_disk.Memdisk.params ->
  Iron_vfs.Fs.brand ->
  session ->
  forensics_ctx
(** Classify every logged block against the session baseline with the
    brand's own classifier. *)

val explain_spec :
  check:(state_spec -> outcome) ->
  forensics_ctx ->
  session ->
  state_spec * kind * string ->
  chain
(** The forensics minimizer over a session violation: greedily restore
    dropped per-block suffixes, re-check via [check], and keep the
    suffixes whose restoration flips the outcome — same algorithm (and
    chain shape) as [explore ~forensics:true]. *)

val pp_report : Format.formatter -> report -> unit
(** One summary line plus the first few violations. Byte-stable: does
    not mention forensics (goldens pin it). *)

val pp_chain : Format.formatter -> chain -> unit
(** The violation, its root-cause summary, and each culprit with its
    provenance, one per line. *)

val pp_timeline : ?chains:chain list -> Format.formatter -> report -> unit
(** The merged write-log timeline: one line per recorded write —
    sequence, epoch, block and type, journal txn/role, originating op,
    fault rule — with culprit writes of any of [?chains] flagged
    [!!]. *)
