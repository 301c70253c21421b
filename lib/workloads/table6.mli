(** Table 6: time overheads of the 32 ixt3 variants, normalized to
    stock ext3, across the four application workloads. *)

type row = {
  index : int;
  label : string;  (** e.g. ["Mc Mr Dp"] *)
  ratios : (string * float) list;  (** workload name -> normalized time *)
}

type table = {
  baselines : (string * float) list;  (** workload -> ext3 ms *)
  rows : row list;
}

val compute : ?obs:Iron_obs.Obs.t -> ?jobs:int -> unit -> table
(** Runs 4 workloads x (1 baseline + 32 variants), each a
    {!Runner.run} at its default seed (42). Deterministic: the
    table is byte-identical for any [jobs] (default 1); the 32 variant
    rows fan out over an {!Iron_util.Pool} of worker domains.

    [~obs] is shared by every run (the context is domain-safe). The
    metric {e sums} in its snapshot stay byte-identical for any [jobs]
    — the same total work is metered — but with [jobs > 1] spans from
    concurrent runs interleave in the shared ring, so exporters should
    rely on the snapshot, not the span order. *)

val pp : Format.formatter -> table -> unit
(** Paper-style rendering: slowdowns over 10% marked with [*],
    speedups in [brackets]. *)
