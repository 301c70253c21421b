(** The failure-policy fingerprinting engine (paper §4), in three
    layers:

    + {b spec} — {!Experiment.plan} enumerates the campaign as a pure
      list of self-contained jobs (fault kind × workload × block type,
      each with a derived seed);
    + {b executor} — each job runs against a {e private} device stack
      (its own {!Iron_disk.Memdisk} device restored onto a shared
      frozen image — restore is O(dirty blocks), not O(disk) — its own
      injector, its own file-system instance) and yields one {!cell};
      jobs with a resolved target are fanned out over OCaml 5 domains
      by {!Iron_util.Pool.map_jobs}, and jobs whose dry trace shows no
      candidate block are resolved at spec time without touching the
      pool;
    + {b aggregator} — observations are folded back into the
      Figure-2/3 matrices and counters in spec order.

    Determinism contract: the rendered matrices and every counter are
    byte-identical for any worker count ([~jobs]) and any completion
    order, and two campaigns with the same [~seed] are identical runs.
    Only {!stats} (wall-clock, worker count) reflects the execution,
    and the renderers never print it.

    Before a job runs, the engine dry-runs each workload fault-free to
    learn its type-labelled I/O trace. The trace is frozen into a
    plain array and indexed by [(direction, block type)] so target
    resolution per job is a hash lookup, not a list scan; the per-block
    type oracle is frozen into a label array at the same point. Then,
    per (block type, workload, fault kind) with a candidate target,
    the executor restores the image, arms one fault just below the
    file system and re-runs; detection and recovery are inferred from
    the three observables of §4.3 — API results, the kernel log, and
    the low-level I/O trace. *)

type cell = {
  applicable : bool;  (** a target block of this type was accessed *)
  fired : int;  (** times the armed fault actually triggered *)
  detection : Taxonomy.detection list;
  recovery : Taxonomy.recovery list;
  note : string;  (** e.g. the errno returned, for human inspection *)
}

type matrix = {
  fs_name : string;
  fault : Taxonomy.fault_kind;
  rows : string list;  (** block types *)
  cols : char list;  (** workload columns, a–t *)
  cell : string -> char -> cell;
}

type stats = {
  jobs_total : int;  (** enumerated (type, workload, fault) jobs *)
  jobs_scheduled : int;
      (** jobs with a resolved target that entered the pool — the rest
          were pruned at spec time from the indexed dry traces *)
  jobs_applicable : int;  (** jobs with a candidate target block *)
  jobs_fired : int;  (** jobs whose armed fault actually triggered *)
  faults_fired : int;  (** total trigger count across all jobs *)
  workers : int;
      (** the [~jobs] asked for, floored at 1; {!Iron_util.Pool.map_jobs}
          clamps the domains that run them *)
  wall_s : float;  (** campaign wall-clock, including preparation *)
}

(** Campaign observability (present when run with [~observe:true]).
    Every field is byte-identical for any [-j]. *)
type observed = Iron_obs.Obs.recording = {
  metrics : Iron_obs.Obs.snapshot;
      (** preparation + per-job registries, merged in spec order —
          byte-identical for any [-j] *)
  spans : Iron_obs.Obs.span list;
      (** preparation spans (lane 0) then each job's spans on lane
          [job index + 1], in spec order — byte-identical for any
          [-j]. Fingerprint campaigns run with the disk time model
          off, so timestamps are all zero and [seq] carries order. *)
  spans_dropped : int;
      (** spans evicted from the bounded per-job rings (preparation +
          every job), summed in spec order — byte-identical for any
          [-j]. [0] means {!field-spans} is complete; exporters emit a
          trailing meta record otherwise. *)
}

type report = {
  name : string;
  block_types : string list;
  matrices : matrix list;  (** one per fault kind, in taxonomy order *)
  stats : stats;  (** aggregator-sourced campaign counters *)
  observed : observed option;  (** [None] unless [~observe:true] *)
}

val fingerprint :
  ?faults:Taxonomy.fault_kind list ->
  ?workloads:Workload.t list ->
  ?block_types:string list ->
  ?num_blocks:int ->
  ?persistence:Iron_fault.Fault.persistence ->
  ?seed:int ->
  ?jobs:int ->
  ?observe:bool ->
  Iron_vfs.Fs.brand ->
  report
(** Plan a campaign with {!Experiment.plan} and run it (defaults: all
    fault kinds, all twenty workloads, all of the brand's block types,
    a 2048-block volume, sticky faults, seed {!Experiment.default_seed},
    one job at a time). [~jobs] is passed to {!Iron_util.Pool.map_jobs};
    [jobs <= 1] runs every job in the calling domain. Pass
    [~persistence:(Transient 1)] to measure tolerance of transient
    faults (§5.6: "retry is underutilized") — a fault that clears on
    the second attempt is absorbed exactly by the file systems that
    retry. With [~observe:true] (default false) every phase runs under
    an observability context — the device stack is wrapped in
    {!Iron_disk.Dev.observe}, the injector double-emits its I/O trace,
    and journal/scrub spans are captured — and the report carries an
    {!observed} record. *)

val pp_stats : Format.formatter -> stats -> unit
(** One line of campaign counters, for [-v] output. *)

val experiments_run : report -> int
(** Number of (type, workload, fault) scenarios that actually fired. *)

val detected_and_recovered : report -> int
(** Scenarios where the fault fired, was detected (not DZero) and was
    recovered by something stronger than silence. Note that stopping
    (a panic) counts: ReiserFS scores high here by crashing. *)

val detected_and_served : report -> int
(** The stronger bar the paper's ixt3 claim is about (§6.2, "detects
    and recovers from over 200 different partial-error scenarios"):
    the fault fired, was detected, and the workload still completed
    successfully — the failure was absorbed, not converted into a
    crash or an error. *)

val counters : report -> (string * int) list
(** The {e deterministic} campaign counters, as [(name, value)] pairs
    in a fixed order: the three scenario counts above plus the spec /
    executor counters from {!stats} — but never [stats.workers] or
    [stats.wall_s], which reflect the execution rather than the
    campaign. This is exactly the counter set a golden artifact
    ({!Iron_report.Report}) pins. *)
