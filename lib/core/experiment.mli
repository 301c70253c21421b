(** The campaign {e spec} layer: pure enumeration of the paper's §4
    type-aware fault campaign.

    A campaign is the cross product

    {v fault kind × workload column × block type v}

    for one file-system brand, flattened into a list of self-contained
    {!job} descriptions. Enumeration is total and pure: it never
    touches a device, so the full plan (including jobs that will turn
    out to have no candidate target block) exists before anything
    runs. The executor ({!Driver}) runs each job against a private
    device stack; the aggregator folds the observations back into the
    Figure-2/3 matrices in spec order, which is what makes the output
    byte-identical regardless of worker count or completion order. *)

type job = {
  index : int;  (** position in the campaign; the result slot *)
  fs_name : string;
  workload : char;  (** workload column, ['a'..'t'] *)
  block_type : string;
  fault : Taxonomy.fault_kind;
  seed : int;  (** per-job seed, derived from the campaign seed *)
}

type t = {
  brand : Iron_vfs.Fs.brand;
  fs_name : string;
  faults : Taxonomy.fault_kind list;
  cols : char list;  (** workload columns, campaign order *)
  block_types : string list;
  num_blocks : int;
  seed : int;  (** campaign seed; [--seed] on the CLI *)
  persistence : Iron_fault.Fault.persistence;
  jobs : job list;  (** fault-major, then workload, then block type *)
}

val default_seed : int
(** [0xF1D0], the seed the original serial engine hard-coded. *)

val plan :
  ?faults:Taxonomy.fault_kind list ->
  ?workloads:Workload.t list ->
  ?block_types:string list ->
  ?num_blocks:int ->
  ?persistence:Iron_fault.Fault.persistence ->
  ?seed:int ->
  Iron_vfs.Fs.brand ->
  t
(** Enumerate the campaign. Defaults mirror the historical driver:
    all fault kinds, all twenty workloads, all of the brand's block
    types, a 2048-block volume, sticky faults, seed {!default_seed}. *)

val total : t -> int
(** [List.length t.jobs]. *)
