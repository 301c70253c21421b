(** The fail-partial failure model (paper §2.3) and its injector.

    The injector wraps a {!Iron_disk.Dev.t} and sits where the paper's
    pseudo-device driver sat: directly beneath the file system, above
    everything else. It can

    - fail reads or writes of chosen blocks (latent sector errors),
      stickily or transiently;
    - silently corrupt the data returned by reads, with several
      corruption shapes (noise, zeroes, single bit flips, the classic
      byte-shift firmware bug, or a caller-supplied field tweak for
      type-aware corruption);
    - fail spatially-local ranges (a media scratch) or the whole disk.

    Every I/O through the injector is appended to a trace, annotated by
    a caller-installed block-type classifier; the fingerprinting engine
    reads this trace to infer retry, redundancy and stop behaviours. *)

type direction = Read | Write

(** How a corrupting read mangles the returned data. *)
type corruption =
  | Zeroes  (** block replaced by zeroes *)
  | Noise of int  (** pseudo-random bytes from the given seed *)
  | Bit_flip of int  (** flip one bit: [offset*8 + bit] within the block *)
  | Byte_shift
      (** data circularly shifted by one byte — the drive-firmware bug
          reported in the paper (§2.2, [37]) *)
  | Tweak of (bytes -> unit)
      (** caller mutates the buffer in place; used for type-aware
          corruption of individual fields so the block still looks
          plausible (§4.2) *)

type kind =
  | Fail_read  (** reads of the target return [Eio] *)
  | Fail_write  (** writes to the target return [Eio] and are dropped *)
  | Corrupt of corruption  (** reads of the target succeed with bad data *)

type persistence =
  | Sticky  (** the fault never goes away *)
  | Transient of int
      (** fires for the first [n] {e injections} only. An access where
          nothing was injected (e.g. a [Corrupt] rule whose underlying
          read failed) consumes no budget. *)
  | Until_write
      (** read failures that clear, {e block by block}, once the block
          is successfully rewritten — the drive remapping that sector
          (§2.3.3). Rewriting one sector of a [Range]/[Blocks]/
          [Whole_disk] target stops the fault for that sector only;
          the rest of the scratch keeps failing. *)
  | After of int
      (** dormant for the first [n] matching accesses, then permanent.
          [rule Whole_disk Fail_write ~persistence:(After n)] is a power
          cut landing n writes into a transaction commit. *)

type target =
  | Block of int
  | Range of int * int  (** inclusive range: a surface scratch *)
  | Blocks of int list
  | Whole_disk

type rule = {
  name : string;
      (** stable identity for attribution — never derived from arm
          order *)
  target : target;
  kind : kind;
  persistence : persistence;
}

val rule : ?name:string -> ?persistence:persistence -> target -> kind -> rule
(** Persistence defaults to [Sticky]. When [name] is omitted a
    deterministic one is derived from the rule's kind and target
    (e.g. ["fail_read@blk301"], ["corrupt.noise@blk10-14"]), so two
    runs that arm the same rules — in any order — report the same
    identities. *)

(** {2 The injector} *)

type t

val create : ?obs:Iron_obs.Obs.t -> ?trace_cap:int -> Iron_disk.Dev.t -> t
(** [create below] wraps a device. With [~obs], every trace event is
    double-emitted into the observability layer's span buffer (under
    subsystem [fault.io]) and injected faults bump the
    [fault.inject.fail_read] / [fault.inject.fail_write] /
    [fault.inject.corrupt] aggregate counters plus a per-rule
    [fault.inject.<rule-name>] counter, with a [fault.inject] obs
    event naming the rule. Whether or not [obs] is supplied, each
    committed injection also notes the rule's name in the ambient
    {!Iron_obs.Prov} tag, so recorded writes carry the fault that
    bit them. [trace_cap] bounds the in-memory
    I/O trace (default 65,536 events, generous: a whole fingerprinting
    job issues a few thousand I/Os); once full, the oldest
    events are dropped and counted by {!trace_dropped} — a long-running
    job no longer grows its trace without bound. *)

val dev : t -> Iron_disk.Dev.t
(** The injector as a device. Its [read_into] is the zero-copy twin of
    [read]: same firing decision against the armed rules, same trace
    events and injection counters, with corruption applied in the
    caller's buffer — the two are indistinguishable to the layers
    above and below. *)

type rule_id

val arm : t -> rule -> rule_id
(** Rules match in arm order: when several rules cover the same access,
    the oldest armed rule wins, deterministically. Matching walks the
    rule list in place — no per-I/O allocation. *)

val disarm : t -> rule_id -> unit
val disarm_all : t -> unit

val reset : t -> unit
(** Forget everything the injector was told or saw since it was made:
    every armed rule (without retiring its count), every retired count
    and the trace. Afterwards {!fired} reads 0 for every id issued
    before, and ids are never issued twice. A reset injector behaves as
    a fresh one with the same classifier and tracing switch; a worker
    that reuses one injector for job after job resets it per job, so
    no job leaves anything behind. *)

val fired : t -> rule_id -> int
(** How many times the rule has actually injected its fault so far.
    An access where nothing was injected (a [Corrupt] rule over a read
    that failed underneath) does not count. Counts survive {!disarm} /
    {!disarm_all}: tear-down then post-mortem is the normal calling
    pattern. *)

(** {2 Tracing} *)

type outcome =
  | Io_ok
  | Io_error of Iron_disk.Dev.error  (** injected or propagated *)
  | Io_corrupted  (** returned [Ok] with mangled data *)

type event = {
  seq : int;
  dir : direction;
  block : int;
  label : string;  (** block type, from the classifier; "?" if none *)
  outcome : outcome;
}

val set_classifier : t -> (int -> string) -> unit
(** Install the gray-box block-type oracle used to label trace events. *)

val trace : t -> event list
(** Events in issue order — the newest [trace_cap] of them. *)

val trace_dropped : t -> int
(** Events evicted since the last {!clear_trace} because the bounded
    trace filled; [0] means {!trace} is complete. *)

val clear_trace : t -> unit
val set_tracing : t -> bool -> unit
(** Tracing is on by default; benchmarks turn it off. *)

val pp_event : Format.formatter -> event -> unit
