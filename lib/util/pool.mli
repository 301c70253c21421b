(** Fan-out of independent jobs over OCaml 5 domains (stock runtime,
    no dependencies). The fingerprinting campaign, crash, fuzz,
    traffic and Table 6 checks are all lists of independent runs, and
    all of them go through {!map_jobs}.

    Determinism contract: results are slotted by job index, so the
    output order equals the input order whatever the domain count or
    completion order. Every job runs exactly once, even when other
    jobs raise; after all of them ran, the exception of the
    lowest-indexed failing job is re-raised in the caller. *)

val map_jobs : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_jobs ~jobs f xs] is {!map_on} over [min jobs (length xs)]
    domains, the caller included, clamped to
    [Domain.recommended_domain_count () - 1] and floored at 1. A call
    clamped to one domain, which includes every call on a host that
    recommends two domains or fewer, runs all jobs on the caller and
    spawns none. *)

val map_on : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** The loop {!map_jobs} runs, without the clamp: the caller and
    [domains - 1] spawned domains (at most one domain per job) claim
    contiguous chunks of job indices from one atomic cursor, then
    join. Chunks hold at most 16 jobs and are small enough to give
    each domain at least four when the input allows. Chunking cannot
    show in the result. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the default for [-j]. *)
