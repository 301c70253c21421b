(** Bounded workload generation and the per-workload durability oracle
    (CrashMonkey / B3 style).

    The crash-state explorer ({!Iron_crash.Explore}) sweeps the disk
    states one {e fixed} workload can leave behind; the paper's point —
    failure policy is illogical and inconsistent — only lands when the
    {e workload space} is swept too. This module generates that space:
    every VFS mutation over a small fixed name set (2 directories × 3
    files), exhaustively for sequences of length 1 and 2, seeded
    sampling for length 3 — the B3 bound under which real
    crash-consistency bugs cluster.

    Each generated workload runs against a freshly restored base image
    ({!setup} builds it: [/d0], [/d1], two initial files, sync'd) while
    a {!tracker} replays the ops against a tiny in-memory model of what
    {e should} happen. After every successful op the tracker samples
    the visible state of every tracked path together with the epoch
    the op's writes landed in; {!expects} later converts those samples
    into per-path assertions for any crash state, given the largest
    epoch [E] the state provably persisted ({!Iron_crash.Explore.spec_epoch}):

    + activity from epochs [< E] is durable — if the path was last
      touched there, presence {e and} content are checked exactly;
    + later activity may be arbitrarily partial — presence is only
      constrained when every in-flight op agrees on it, and content
      must belong to the set of observed op-boundary snapshots, or is
      left unchecked entirely when un-synced data writes are in flight
      (a torn data overwrite is legal in ordered/writeback modes). *)

type op =
  | Creat of string
  | Write of string  (** open + overwrite with a deterministic pattern + close *)
  | Rename of string * string
  | Link of string * string
  | Symlink of string * string  (** [Symlink (target, linkpath)] *)
  | Unlink of string
  | Mkdir of string
  | Rmdir of string
  | Truncate of string  (** to length 0 *)
  | Fsync of string  (** open read-only + fsync + close *)
  | Sync

type workload = op list

val op_to_string : op -> string

val to_string : workload -> string
(** ["; "]-joined op labels — the workload's canonical name in reports. *)

val alphabet : op list
(** The fixed 37-op alphabet over the name set, in a pinned order:
    creat/write/unlink/truncate/fsync over the three files, ordered
    rename/link/symlink pairs, mkdir of the one absent directory,
    rmdir of the two present ones, and sync. *)

val workloads : seq:int -> seed:int -> samples:int -> workload list
(** Every workload of length [<= seq] for [seq <= 2] (37 singletons,
    1369 pairs); [seq = 3] appends [samples] seeded distinct triples.
    Deterministic: a pure function of [(seq, seed, samples)].
    @raise Invalid_argument unless [1 <= seq <= 3]. *)

val setup : Iron_vfs.Fs.boxed -> unit
(** The pre-workload fixture, for {!Iron_crash.Explore.make_base}:
    [mkdir /d0], [mkdir /d1], create [/f0] and [/d0/f1] with
    deterministic contents, sync. [/d1/f2] and [/d2] start absent.
    @raise Failure if any step fails. *)

val init_content : string -> string
(** The fixture content of a path created by {!setup}. *)

type tracker
(** The replay model + sample log for one workload run. Create fresh
    per run; updated incrementally so a model panic mid-workload loses
    nothing already sampled. *)

val tracker : unit -> tracker

val run :
  Iron_vfs.Fs.boxed -> closed_epochs:(unit -> int) -> tracker -> workload -> unit
(** Execute the workload op by op (each scoped under
    [Iron_obs.Prov.with_op]), applying every {e successful} op to the
    model and sampling the tracked paths. [closed_epochs] is the hook
    {!Iron_crash.Explore.record_session} passes to [ops]. Ops the file
    system rejects ([EEXIST], [ENOENT], ...) are skipped — error
    returns promise nothing about the disk.

    Durability bookkeeping: a buffered op writes nothing by itself, so
    its sample stays {e pending} ([sp_dur = max_int]) until an
    epoch-closing [fsync]/[sync] retroactively promotes every pending
    sample to [ep_after - 1] (the journal's compound transaction
    commits everything staged). A sync that closed no epoch promises
    nothing. *)

type sample = {
  mutable sp_dur : int;
      (** the sample is durable in a crash state of epoch [E] iff
          [sp_dur < E]; [max_int] while pending (see {!run}) *)
  sp_exists : bool;
  sp_content : string option;  (** [None] for directories *)
  sp_wep : int;
      (** max epoch of the data writes behind [sp_content]; [-1] if
          none — content is only trusted when [sp_wep < E] *)
  sp_ino : int option;
      (** the model inode behind the path, [None] for directories and
          absent paths *)
}

type replay = {
  rp_paths : (string * sample list) list;
      (** chronological samples per tracked path; head sample is the
          fixture state with [sp_dur = -1] (always durable) *)
  rp_aliased : (int, unit) Hashtbl.t;
      (** inodes that ever changed name or gained a second one
          (rename/link): content expectations are suppressed for them —
          in a partial crash state a stale dirent can expose writes
          made under the other name *)
}

val replay : tracker -> replay

val expects : ?lying:bool -> replay -> epoch:int -> Iron_crash.Explore.expect list
(** The durability oracle: per-path assertions for a crash state that
    provably persisted all epochs [< epoch] — plug directly into
    {!Iron_crash.Explore.check_spec}.

    With [~lying:true] (for states {!Iron_crash.Explore.spec_honest}
    rejects — only a lying write-back cache produces them), the oracle
    asserts nothing beyond the fixture: a lying cache mixes per-block
    versions in ways no op-boundary mixture explains, so only paths
    the workload never mutated keep their fixture guarantee; every
    touched path checks as [`Any]. Use with [~epoch:0]. *)
