(** The closed-loop client, its metrics and its output. *)

val end_to_end : (string * string) list
(** Metric name and unit of every untraced-run metric. *)

val per_layer : (string * string) list
(** Metric name and unit of every traced-run metric. *)

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  correct : bool;
  problems : string list;  (** the first few, in order *)
  outputs_sha1 : string;
      (** hex SHA-1 over the canonical report of every request of the
          first pass, in order *)
  golden_checked : int;
  golden_diffs : int;
  elapsed_s : float;
  pass_s : float;  (** when the first pass was complete *)
  units_per_s : float;
  metrics : (string * float) list;
      (** {!end_to_end} when untraced, {!per_layer} when traced *)
}

val run :
  (unit -> Plan.workload) -> seed:int -> seconds:float -> traced:bool -> result
(** Set up the workload, then send its requests one after another —
    cycling through the list — until the first pass is complete,
    [seconds] have passed and 100 requests are done, or 150 s have
    passed. An untraced run also times the set-up between requests,
    before the first and then about once a second: [setup_s] is the
    median over these rounds, each of which repeats the set-up for
    20 ms and divides by the count. *)

val print : ?trace_file:string -> result -> unit
(** Every metric by name with its unit, then the one-line JSON result. *)

val to_json : set:string -> result -> Iron_report.Json.t
(** The run as a record for [--record] files and {!Compare}. *)
