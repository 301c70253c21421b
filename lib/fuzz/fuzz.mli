(** The bounded black-box crash-fuzzing campaign.

    [campaign] drives every generated workload ({!Gen.workloads})
    through the per-workload session API of {!Iron_crash.Explore} —
    record through a {!Iron_crash.Wlog}, enumerate crash-state specs,
    materialize, remount, check — and deduplicates crash states
    {e across} workloads by their baseline-relative SHA-1 content
    digest, so a seq-2 sweep checks tens of thousands of distinct
    states instead of re-checking the same torn prefixes 1406 times.

    Two passes keep it [-j]-deterministic {e and} memory-flat:

    + {b scan} (parallel, slotted by workload index): record +
      enumerate each workload, return only the 20-byte state digests —
      each session's write log dies with the job;
    + a sequential fold in workload order assigns every {e novel}
      digest to the first workload that produced it (j-independent by
      construction);
    + {b check} (parallel, slotted): re-record exactly the workloads
      that own novel states and materialize/check just those, against
      the durability oracle {!Gen.expects}.

    Violating workloads are shrunk with {!minimize} (greedy drop-one
    op, re-fuzzing each candidate subsequence) before reporting. *)

type case = {
  cs_index : int;  (** workload index in generation order *)
  cs_workload : string;  (** {!Gen.to_string} of the workload *)
  cs_minimized : string;  (** smallest still-violating op subsequence *)
  cs_checked : int;  (** novel states this workload owned *)
  cs_violations : int;
  cs_first : (string * string * string) list;
      (** first few violations: state label, kind, detail *)
  cs_chains : Iron_crash.Explore.chain list;
      (** causal forensics per violation; [[]] unless [~explain:true] *)
}

type report = {
  fz_fs : string;
  fz_seq : int;
  fz_seed : int;
  fz_cap : int;  (** states-per-workload bound *)
  fz_workloads : int;
  fz_log_writes : int;  (** recorded writes, summed over workloads *)
  fz_peak_bytes : int;
      (** largest single write log's payload bytes — a job's residency
          is one log at a time ({!Iron_crash.Wlog.take} moves, sessions
          die with their workload), so this pins peak per-job memory *)
  fz_states_raw : int;  (** enumerated before cross-workload dedup *)
  fz_states : int;  (** distinct crash states materialized and checked *)
  fz_violations : int;
  fz_tc : int;  (** transactional-checksum detections during recovery *)
  fz_kinds : (string * int) list;  (** violation tally per kind, sorted *)
  fz_corpus : string;  (** hex SHA-1 over the sorted state-digest corpus *)
  fz_cases : case list;  (** violating workloads, in workload order *)
}

val campaign :
  ?jobs:int ->
  ?seq:int ->
  ?states_per_workload:int ->
  ?seed:int ->
  ?samples:int ->
  ?explain:bool ->
  ?obs:Iron_obs.Obs.t ->
  Iron_vfs.Fs.brand ->
  report
(** Runs on a 2048-block volume. Defaults: [jobs = 1], [seq = 1],
    [states_per_workload = 150], [seed = 7], [samples = 200] (seq-3
    only), [explain = false]. With [~obs] the phases run under
    [fuzz.*] spans and bump [fuzz.workloads], [fuzz.log_writes],
    [fuzz.peak_log_bytes], [fuzz.states_raw], [fuzz.states],
    [fuzz.violations] and [fuzz.tc_detected]. Deterministic: the
    report is a pure function of [(brand, seq, states_per_workload,
    seed, samples, explain)] — [jobs] cannot change a byte. *)

val minimize : repro:(Gen.workload -> bool) -> Gen.workload -> Gen.workload
(** Greedy 1-minimal shrink: repeatedly drop the first op whose
    removal still satisfies [repro]. The result is [repro]-positive
    whenever the input was and no single-op removal survives. *)

val count : report -> string -> int
(** Violations of one kind (by {!Iron_crash.Explore.kind_to_string}
    name). *)

val pp_report : Format.formatter -> report -> unit
(** Byte-stable summary: one header line (grep-able
    ["<fs>: fuzz ... -> N violations ..."]), the corpus digest, then
    the first few violating workloads with their minimized forms.
    Never mentions chains (goldens pin the [--explain]-free bytes). *)

val pp_chains : Format.formatter -> report -> unit
(** The forensic chains of every case, via
    {!Iron_crash.Explore.pp_chain}; prints nothing when [~explain]
    was off. *)
