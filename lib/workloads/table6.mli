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
  observed : Iron_obs.Obs.recording option;
      (** with [~observe:true]: every run's {!Iron_obs.Obs.lanes} *)
}

val compute : ?observe:bool -> ?jobs:int -> unit -> table
(** Runs 4 workloads x (1 baseline + 32 variants), each a
    {!Runner.run} at its default seed (42). Deterministic: the
    table is byte-identical for any [jobs] (default 1); the 32 variant
    rows fan out over an {!Iron_util.Pool} of worker domains.

    With [~observe:true] each of the 132 runs records into a context
    of its own, so the device clock a run installs times only its own
    spans. The runs count in table order — the four baselines, then
    each row's four — which sets the metrics' merge order and each
    run's span lane, so [observed] too is byte-identical for any
    [jobs]. *)

val pp : Format.formatter -> table -> unit
(** Paper-style rendering: slowdowns over 10% marked with [*],
    speedups in [brackets]. *)
