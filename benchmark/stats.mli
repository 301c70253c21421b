(** Order statistics for run summaries and run-to-run comparison. *)

val quantiles : n:int -> float list -> float list
(** The [n - 1] cut points dividing the data into [n] groups, computed
    as Python's [statistics.quantiles(data, n=n)] does (its default
    "exclusive" method); a single value is every cut point. Raises
    [Invalid_argument] on empty data. *)

val median : float list -> float
(** Raises [Invalid_argument] on empty data. *)

val quartiles : float list -> float * float * float
(** [(q1, median, q3)]. *)

val p90_min_samples : int
(** [100]: the 90th percentile is reported only when at least ten
    samples lie beyond it. *)

type latency = { samples : int; p50 : float; p90 : float option }

val latency : float list -> latency
(** Median and, with at least {!p90_min_samples} samples, the 90th
    percentile. Raises [Invalid_argument] on empty data. *)
