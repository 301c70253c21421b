(** [compare A B]: two sets of recorded runs, side by side.

    For each workload and end-to-end metric: both sides' medians and
    quartiles, the fraction of run pairs that B wins, and a verdict.
    B is [better] when there are at least ten run pairs, B wins at
    least nine tenths of them (ties count for neither) and the medians
    differ by more than A's interquartile range; [worse] when B's median is worse than A's by
    more than the metric's bound; [unresolved] when either side's
    spread exceeds the bound, unless every run of B beats every run of
    A; [same] otherwise. Also flags any workload whose [outputs_sha1]
    differs at a seed both sides ran, and any rise in failed requests. *)

type bound = { metric : string; higher_is_better : bool; bound : float }

type verdict = Better | Worse | Same | Unresolved

val verdict_to_string : verdict -> string

val verdict :
  bound -> a:float list -> b:float list -> verdict * float
(** The verdict for one metric and B's win fraction over the pairs
    [(a_i, b_i)]. *)

val main : benchmark_json:string -> string -> string -> int
(** [main ~benchmark_json a b] prints the comparison of the records in
    files [a] and [b] and returns the exit code: [1] when any metric is
    [worse], any outputs changed or failures rose, [2] on unreadable
    input, [0] otherwise. A file name may end in [@SET] to take only
    the records of that set. *)
