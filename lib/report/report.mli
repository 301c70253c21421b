(** Versioned golden artifacts and the regression differ.

    The paper's whole method is {e diffing observable outputs} of
    faulty vs fault-free runs (§4.3); this module applies the same
    discipline to the reproduction itself. Every experiment output we
    gate on — the Figure-2/3 failure-policy matrices, the §6.1
    crash-exploration reports, the bench metric sets — has a stable,
    canonical JSON encoding carrying a schema version, and a type-aware
    differ:

    - {b policy matrices} and {b crash counts} compare {e exactly}
      (they are deterministic by the executor's contract: byte-identical
      for any [-j] at a fixed seed);
    - {b timing metrics} compare under a relative tolerance, or against
      committed threshold rules (wall-clock is not reproducible, its
      envelope is).

    Golden artifacts live under [golden/] in the repository;
    [iron golden --update] regenerates them and
    [iron diff golden/ FRESH/] is the CI gate. The loader rejects
    unknown schema versions so a stale golden tree fails loudly, never
    silently. *)

val schema_version : int
(** Current schema version, [1]. Encoded into every artifact; the
    loader rejects anything else. *)

(** {1 Artifact types} *)

(** One failure-policy cell, as observed (strings, not taxonomy
    variants, so a decoded artifact is self-contained). [d_sym] /
    [r_sym] are the rendered Figure-2 symbols
    ({!Iron_core.Render.cell_symbols}) used in diff output. *)
type fp_cell = {
  row : string;  (** block type *)
  col : string;  (** workload column, ["a"].. ["t"] *)
  applicable : bool;
  fired : int;
  detection : string list;  (** {!Iron_core.Taxonomy.detection_name}s *)
  recovery : string list;
  note : string;
  d_sym : string;
  r_sym : string;
}

type fp_matrix = {
  fault : string;  (** {!Iron_core.Taxonomy.fault_kind_name} *)
  rows : string list;
  cols : string list;
  cells : fp_cell list;
      (** applicable cells only, row-major; a missing (row, col) is the
          not-applicable cell *)
}

type fingerprint = {
  fp_fs : string;
  fp_seed : int;
  matrices : fp_matrix list;
  counters : (string * int) list;
      (** the deterministic campaign counters,
          {!Iron_core.Driver.counters} *)
}

type crash_violation = { state : string; v_kind : string; detail : string }

type crash = {
  c_fs : string;
  c_seed : int;
  c_max_states : int;
  log_len : int;
  epochs : int;
  states : int;
  tc_detected : int;
  kind_counts : (string * int) list;  (** per {!Iron_crash.Explore.kind} *)
  violations : crash_violation list;  (** in exploration order *)
}

(** One minimized culprit of a {!forensic_chain} — a dropped (or torn)
    per-block write suffix whose restoration makes the violation
    disappear, with the provenance its first dropped write was recorded
    under. Mirrors {!Iron_crash.Explore.culprit}. *)
type forensic_culprit = {
  fc_block : int;
  fc_label : string;
  fc_role : string;
  fc_txn : int;
  fc_policy : string;
  fc_epoch : int;
  fc_op : int;
  fc_op_label : string;
  fc_rule : string;
  fc_first_seq : int;
  fc_dropped : int;
  fc_torn : bool;
}

type forensic_chain = {
  fh_state : string;
  fh_kind : string;  (** {!Iron_crash.Explore.kind_to_string} *)
  fh_detail : string;
  fh_probes : int;
  fh_summary : string;  (** one-line root cause *)
  fh_culprits : forensic_culprit list;
}

(** One provenance-tagged write of the recorded log (the [iron explain]
    timeline). [w_t] is omitted: exploration runs with the service-time
    model off, so [fl_seq] carries the ordering. *)
type forensic_log = {
  fl_seq : int;
  fl_block : int;
  fl_epoch : int;
  fl_label : string;
  fl_txn : int;
  fl_policy : string;
  fl_role : string;
  fl_op : int;
  fl_op_label : string;
  fl_rule : string;
}

type forensics = {
  fo_fs : string;
  fo_seed : int;
  fo_max_states : int;
  fo_chains : forensic_chain list;  (** in violation order *)
  fo_log : forensic_log list;  (** in issue order *)
}

(** A named deterministic counter set ([iron stats] / [--metrics]
    output as an artifact). *)
type metrics_set = {
  m_name : string;
  m_seed : int;
  m_metrics : (string * int) list;
}

type bench_record = {
  experiment : string;
  wall_ms : int;  (** wall-clock; compared only under tolerance *)
  b_jobs : int;  (** campaign jobs executed *)
  b_workers : int;
  metrics : (string * int) list;  (** stashed counters, path-sorted *)
}

type bench = { records : bench_record list }

(** One threshold rule over a bench metric set: [metric <= max_value],
    [metric >= min_value], and/or [metric <= value of le_metric]. *)
type rule = {
  metric : string;
  max_value : int option;
  min_value : int option;
  le_metric : string option;
}

type thresholds = { rules : rule list }

(** One violating workload of a fuzzing campaign, with its minimized
    form. Mirrors {!Iron_fuzz.Fuzz.case} minus the forensic chains
    (goldens are regenerated without [--explain]). *)
type fuzz_case = {
  z_index : int;
  z_workload : string;
  z_minimized : string;
  z_checked : int;
  z_violations : int;
  z_first : crash_violation list;
}

type fuzz = {
  z_fs : string;
  z_seq : int;
  z_seed : int;
  z_cap : int;  (** states-per-workload bound *)
  z_workloads : int;
  z_log_writes : int;
  z_states_raw : int;
  z_states : int;  (** deduped states materialized and checked *)
  z_violations : int;
  z_tc : int;
  z_kinds : (string * int) list;
  z_corpus : string;  (** hex SHA-1 of the sorted state-digest corpus *)
  z_cases : fuzz_case list;
}

(** One tenant's row of a traffic report. *)
type traffic_tenant = {
  tt_tenant : int;
  tt_ops : int;  (** load-phase ops by this tenant's clients *)
  tt_viol : int;  (** crash states losing this tenant's durable data *)
  tt_cross : int;  (** of those, charged to another tenant's write *)
}

(** A multi-tenant traffic campaign ({!Iron_traffic.Traffic.report}):
    load-phase throughput and latency in {e simulated} time plus the
    blast-radius crash accounting — all integers, compared exactly. *)
type traffic = {
  t_fs : string;
  t_clients : int;
  t_tenants : int;
  t_seed : int;
  t_zipf_milli : int;
  t_arrival : string;
  t_duration_ms : int;
  t_num_blocks : int;
  t_ops : int;
  t_errors : int;
  t_ops_per_sim_sec : int;
  t_p50_us : int;
  t_p99_us : int;
  t_op_counts : (string * int) list;
  t_chunks_touched : int;
  t_blocks_touched : int;
  t_states : int;
  t_tc : int;
  t_viol : int;
  t_cross : int;
  t_mount_viol : int;
  t_per_tenant : traffic_tenant list;
}

type t =
  | Fingerprint of fingerprint
  | Crash of crash
  | Forensics of forensics
  | Metrics of metrics_set
  | Bench of bench
  | Thresholds of thresholds
  | Fuzz of fuzz
  | Traffic of traffic

val kind_name : t -> string
(** ["fingerprint"] | ["crash"] | ["forensics"] | ["metrics"] |
    ["bench"] | ["bench-thresholds"] | ["fuzz"] | ["traffic"]. *)

val filename : t -> string
(** Canonical basename for an artifact directory:
    [fingerprint-<fs>.json], [crash-<fs>.json], [forensics-<fs>.json],
    [metrics-<name>.json], [bench.json], [bench-thresholds.json],
    [fuzz-<fs>.json], [traffic-<fs>.json]. *)

(** {1 Builders} *)

val of_fingerprint : seed:int -> Iron_core.Driver.report -> t
(** Capture the deterministic fraction of a campaign report: matrices
    (applicable cells, with rendered symbols) and the
    {!Iron_core.Driver.counters} — never [stats.wall_s] or
    [stats.workers]. *)

val of_crash : seed:int -> max_states:int -> Iron_crash.Explore.report -> t

val of_forensics : seed:int -> max_states:int -> Iron_crash.Explore.report -> t
(** Capture the causal-forensics side of an [explore ~forensics:true]
    report: the chains and the provenance-tagged write log. The
    violation counts themselves stay in the [crash] artifact — the two
    kinds gate independently. *)

val of_metrics : name:string -> seed:int -> (string * int) list -> t
(** A deterministic counter snapshot as a versioned, diffable
    artifact. *)

val metrics_of_snapshot : Iron_obs.Obs.snapshot -> (string * int) list
(** Flatten an observability snapshot to integer metrics for
    {!of_metrics}: counters verbatim, gauges truncated, histograms as
    [<path>.count] / [<path>.sum]. Path order is preserved (snapshots
    are path-sorted). *)

val bench_of_records : bench_record list -> t

val of_fuzz : Iron_fuzz.Fuzz.report -> t
(** Capture a fuzzing campaign: the corpus digest pins every deduped
    crash state, the cases pin every violating workload with its
    minimized op subsequence. Deterministic by the campaign's
    contract, so the artifact compares exactly. *)

val of_traffic : Iron_traffic.Traffic.report -> t
(** Capture a traffic campaign. Every field is simulated-time or a
    count — deterministic by the simulator's contract (byte-identical
    for any [-j] at a fixed seed), so the artifact compares exactly. *)

(** {1 Encoding}

    [to_string] is canonical: equal artifacts are byte-equal, so golden
    files are diffable and [git status] is an integrity check. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Rejects documents whose [schema_version] differs from
    {!schema_version} or whose [kind] is unknown. *)

val save : string -> t -> unit
val load : string -> (t, string) result

(** {1 Diffing} *)

type item = {
  path : string;
      (** where, e.g. ["fingerprint/ext3/read/detection+recovery inode:g"] *)
  golden : string;  (** rendered golden-side value *)
  fresh : string;  (** rendered fresh-side value *)
}

val default_timing_tol : float
(** [0.5]: a timing metric may drift ±50% relative to golden before it
    counts as a regression. *)

val diff : ?timing_tol:float -> t -> t -> (item list, string) result
(** [diff golden fresh] is [Ok []] when the artifacts agree,
    [Ok items] with one cell-level item per disagreement, and [Error]
    when the two artifacts are not comparable (different kinds — except
    [Thresholds] vs [Bench], which evaluates the rules). Matrices,
    crash reports, forensics reports and metric sets compare exactly;
    bench timing metrics compare within [timing_tol] (default
    {!default_timing_tol}). *)

val check_thresholds : thresholds -> bench -> item list
(** Evaluate each rule against the union of the bench records' metric
    sets (later records win on duplicate paths). A missing metric is a
    violation: a threshold that silently stops measuring anything is a
    broken gate. *)

val pp_items : Format.formatter -> item list -> unit
(** Human-readable cell-level report, one [path: golden ... | fresh ...]
    block per item. *)
