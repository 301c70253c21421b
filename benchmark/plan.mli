(** The benchmark's workloads: each is an ordered list of requests, a
    pure function of the run seed. A request is one call of a public
    campaign entry point plus the [Report.of_*] and [Report.to_string]
    encoding of its result. *)

type count =
  | Sum of string * float  (** summed over the requests of a pass *)
  | Max of string * float  (** the largest over the requests of a pass *)

type outcome = {
  artifact : Iron_report.Report.t;
  text : string;  (** [Report.to_string artifact] *)
  units : int;  (** work done, in the workload's unit *)
  counts : count list;  (** exact per-workload counts *)
  problem : string option;  (** a broken invariant *)
}

type request = {
  label : string;
  golden : Iron_report.Report.t option;
      (** the committed artifact this request must reproduce *)
  run : unit -> outcome;
}

type workload = {
  name : string;
  unit_name : string;  (** what [units_per_s] counts *)
  requests : request array;  (** one pass, in order *)
}

val names : string list
(** [fingerprint], [crash], [fuzz], [traffic], [apps]. *)

val default_seed : int
(** The golden seed, 61904. *)

val count_names : string list
(** Every name a {!count} can carry, over all workloads. *)

val make :
  traced:bool ->
  golden_dir:string ->
  seed:int ->
  string ->
  (workload, string) result
(** Build the named workload. With [~traced:true] every brand is
    wrapped by {!Tracer.brand} and report encoding runs under
    {!Tracer.report}. [Error] names an unknown workload or an
    unreadable golden artifact. *)
