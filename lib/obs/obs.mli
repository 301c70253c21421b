(** Unified observability: a metrics registry, structured I/O spans and
    machine-readable exporters for the whole storage stack.

    The paper's fingerprinting method (section 4.3) infers failure
    policy by diffing three observables — API errors, the system log
    and the low-level I/O trace. This module gives those observables
    one shared, machine-readable schema:

    - a {b metrics registry} of typed counters, gauges and fixed-bucket
      latency histograms, registered by dotted subsystem path
      ([disk.read], [fault.inject.corrupt], [ext3.journal.commit]);
    - {b structured spans}: begin/end events around an operation,
      carrying subsystem, name, an optional block range, and the
      {e simulated}-time duration, collected in a bounded {!Ring};
    - {b exporters}: a pretty console table, JSONL, and the Chrome
      [trace_event] format, so a campaign opens directly in
      [chrome://tracing] or Perfetto.

    {2 Determinism}

    Everything here is keyed on {e simulated} time (the device clock
    installed with {!set_clock}), never wall-clock, so two runs with
    the same seed produce byte-identical snapshots and traces. The
    campaign executor gives every job a private context and merges the
    per-job snapshots in spec order, which is what makes the exported
    metrics independent of the worker count ([-j]). Fingerprinting
    campaigns run with the disk's service-time model disabled, so their
    span timestamps are all zero and the [seq] field carries the
    ordering; benchmark runs carry real simulated milliseconds.

    {2 Domain safety}

    A context may be shared across domains: metric updates go to
    per-domain cells (the same discipline as {!Iron_util.Pool}'s
    executor) that {!snapshot} merges under a lock. Counter and
    histogram merges are commutative; gauges merge by maximum so the
    result does not depend on domain scheduling. Span emission into the
    shared ring is serialized by a mutex. *)

(** {1 Contexts} *)

type t
(** An observability context: one metrics registry plus one bounded
    span buffer, with a clock. Cheap to create; the fingerprinting
    executor makes one per job. *)

val create : unit -> t
(** [create ()] is a fresh, empty context. Its span ring holds the
    newest 65,536 spans; the oldest are dropped once it fills (see
    {!spans_dropped}). *)

val set_clock : t -> (unit -> float) -> unit
(** Install the simulated-time source (milliseconds). The device layer
    calls this from {!Iron_disk.Dev.observe}, so spans opened above the
    device inherit its clock. Defaults to a constant [0.0]. *)

val release : t -> unit
(** Drop the calling domain's per-domain cells for this context. Call
    after the final {!snapshot} when contexts are created per job, so
    the domain-local table does not accumulate dead stores. *)

(** {1 Metrics} *)

val incr : t -> string -> unit
(** [incr t path] adds one to the counter registered at [path],
    creating it at zero first if needed. *)

val add : t -> string -> int -> unit
(** [add t path n] adds [n] to the counter at [path]. *)

val set_gauge : t -> string -> float -> unit
(** [set_gauge t path v] sets the gauge at [path] to [v] in this
    domain's cell; across domains a snapshot reports the maximum. *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** [observe t path v] records one observation into the fixed-bucket
    histogram at [path], creating it with [buckets] (strictly
    increasing upper bounds, default: upper bounds in milliseconds from 10 microseconds to five
    simulated seconds) on first use.
    An observation [v] lands in the first bucket whose bound is
    [>= v], or in the implicit overflow bucket. *)

(** {1 Spans} *)

type span = {
  seq : int;  (** emission order within the context, from 0 *)
  tid : int;  (** thread lane for exporters; see {!with_tid} *)
  subsystem : string;  (** dotted path, e.g. ["ext3.journal"] *)
  name : string;  (** operation, e.g. ["commit"] *)
  t0 : float;  (** simulated ms at begin *)
  dur : float;  (** simulated ms; [0.] for instants *)
  blk_lo : int;  (** first block touched, or [-1] *)
  blk_hi : int;  (** last block touched, or [-1] *)
  instant : bool;  (** an instantaneous event, not an interval *)
}

val span : t -> subsystem:string -> ?blocks:int * int -> string -> (unit -> 'a) -> 'a
(** [span t ~subsystem name f] runs [f ()] and records one span around
    it: an interval from the clock at entry to the clock at exit, plus
    a counter [subsystem.name] and a latency histogram
    [subsystem.name.ms] in the registry. If [f] raises, the span is
    still recorded (under counter [subsystem.name.raised]) and the
    exception is re-raised. *)

val event : t -> subsystem:string -> ?blocks:int * int -> string -> unit
(** Record an instantaneous event plus a counter [subsystem.name]. *)

val spans : t -> span list
(** Recorded spans, oldest first. *)

val spans_dropped : t -> int
(** Spans evicted because the ring filled. *)

val with_tid : int -> span list -> span list
(** Re-tag spans with an exporter lane; the campaign aggregator uses
    the job index so per-job traces do not overlap. *)

(** {2 Ambient context}

    Layers deep inside a file system (the journal commit path, the
    scrubber) cannot thread a context through the frozen VFS
    signature; they use the per-domain ambient context instead. All
    [_a] helpers are no-ops when no ambient context is installed, so
    uninstrumented runs pay one domain-local read per call site. *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's ambient context for the
    duration of the callback (restoring the previous one after). *)

val ambient : unit -> t option
(** The calling domain's current ambient context, if any. *)

val span_a : subsystem:string -> ?blocks:int * int -> string -> (unit -> 'a) -> 'a
(** {!span} against the ambient context; just runs the callback when
    there is none. *)

val event_a : subsystem:string -> ?blocks:int * int -> string -> unit
(** {!event} against the ambient context, if any. *)

val incr_a : string -> unit
(** {!incr} against the ambient context, if any. *)

(** {1 Snapshots} *)

type histogram = {
  bounds : float array;  (** bucket upper bounds *)
  counts : int array;  (** per-bucket counts; last is overflow *)
  sum : float;  (** sum of observations *)
  count : int;  (** number of observations *)
}

type value = Counter of int | Gauge of float | Histogram of histogram

type snapshot = (string * value) list
(** Path-sorted, immutable view of a registry. *)

val snapshot : t -> snapshot
(** Merge every domain's cells into one path-sorted listing. Take it
    after the work quiesces; concurrent updates may or may not be
    included. *)

val merge : snapshot list -> snapshot
(** Merge snapshots path-wise, in list order: counters and histogram
    cells add, gauges take the maximum.
    @raise Invalid_argument when one path carries two different metric
    kinds or histograms with different bucket layouts. *)

(** {2 One context per job}

    A campaign of independent jobs observes each in a context of its
    own, created and read inside the job, so what a job records is a
    pure function of the job, whichever domain ran it. *)

type recording = {
  metrics : snapshot;
  spans : span list;
  spans_dropped : int;  (** spans the ring evicted *)
}

val finish : t -> recording
(** What [t] recorded; then {!release}s it. Call once, after the work. *)

val lanes : recording list -> recording
(** The recordings in list order: metrics {!merge}d, the [i]th one's
    spans on lane [i] ({!with_tid}), evictions summed. Byte-identical
    for any order the jobs ran in. *)

(** {1 Exporters} *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Pretty per-subsystem table for the console ([iron stats]). *)

val jsonl_of_snapshot : snapshot -> string
(** One JSON object per line:
    [{"type":"counter","path":"disk.read","value":12}],
    [{"type":"histogram","path":...,"count":..,"sum":..,"buckets":[{"le":..,"n":..},...]}]
    with ["+Inf"] as the overflow bound. Byte-stable for equal
    snapshots. *)

val jsonl_of_spans : ?dropped:int -> span list -> string
(** One JSON object per span, in the given order. When [dropped > 0]
    (spans evicted from the ring, {!spans_dropped}), a trailing
    [{"meta":"spans_dropped","dropped":N}] record makes the truncation
    self-describing instead of silently omitting history. *)

val chrome_trace :
  ?dropped:(string * int) list -> (string * span list) list -> string
(** [chrome_trace [(proc_name, spans); ...]] renders the Chrome
    [trace_event] JSON-array format: each list element becomes one
    process (with a [process_name] metadata record), intervals become
    ["ph":"X"] complete events and instants ["ph":"i"], with
    timestamps in microseconds of simulated time and block ranges in
    [args]. [dropped] maps process names to their eviction counts;
    a process with a positive count gets a trailing [spans_dropped]
    instant carrying the count in [args]. Open the result in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)
