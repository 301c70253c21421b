(** A fixed-size [Domain] worker pool (OCaml 5, no dependencies).

    The fingerprinting campaign is hundreds of fully independent
    experiments; this pool is the executor underneath it. It is a
    hand-rolled work queue — one [Mutex] + two [Condition]s, worker
    domains spawned once at [create] — so the repo stays on the stock
    runtime (no domainslib).

    Determinism contract: {!map} slots every result by its job index,
    so the output order equals the input order regardless of worker
    count or completion order. Every job runs exactly once, even when
    other jobs raise; exceptions are re-raised in the calling domain,
    lowest job index first. *)

type t

val create : int -> t
(** [create n] spawns [n] worker domains, clamped to
    [Domain.recommended_domain_count () - 1] (floored at 1) so that,
    counting the caller's own domain, we do not oversubscribe the
    cores the runtime reports: asking for [-j4] on a 1-core host used
    to double campaign wall time instead of halving it. *)

val size : t -> int
(** Number of worker domains. *)

val shutdown : t -> unit
(** Drain outstanding work, stop and join the workers. Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [with_pool n f] runs [f] over a fresh pool and always shuts it
    down, even if [f] raises. *)

val map :
  ?on_job:(queue_ms:float -> run_ms:float -> unit) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** Parallel [List.map] with order preserved by index slotting. All
    jobs run to completion even if some raise; afterwards, if any job
    raised, the exception of the lowest-indexed failing job is
    re-raised here.

    Jobs are submitted in contiguous chunks (up to 16 per queue entry,
    shrunk so every worker still gets several entries) — one
    lock/signal round-trip per chunk instead of per job. Chunking is
    invisible in the results: order, exactly-once and raising
    behaviour are unchanged.

    [on_job] is an executor-telemetry hook, called once per finished
    job with the wall-clock queue wait and run time in milliseconds.
    It runs in the worker domain that executed the job, so it must be
    domain-safe; exceptions it raises are swallowed. Wall-clock times
    are {e not} part of the determinism contract — keep them out of
    byte-stable output. *)

val map_jobs :
  ?on_job:(queue_ms:float -> run_ms:float -> unit) ->
  jobs:int ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map_jobs ~jobs f xs]: [jobs <= 1] runs sequentially in the
    calling domain (no domains spawned — the deterministic baseline),
    and so does any call whose pool {!create} would clamp to a single
    worker; otherwise a temporary pool of [jobs] workers is created,
    used and shut down. The result, including raising behaviour, is identical
    in both modes. The sequential path reports [on_job] with
    [queue_ms = 0.]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the default for [-j]. *)
