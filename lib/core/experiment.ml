module Fs = Iron_vfs.Fs
module Fault = Iron_fault.Fault

type job = {
  index : int;
  fs_name : string;
  workload : char;
  block_type : string;
  fault : Taxonomy.fault_kind;
  seed : int;
}

type t = {
  brand : Fs.brand;
  fs_name : string;
  faults : Taxonomy.fault_kind list;
  cols : char list;
  block_types : string list;
  num_blocks : int;
  seed : int;
  persistence : Fault.persistence;
  jobs : job list;
}

let default_seed = 0xF1D0
let default_num_blocks = 2048

(* splitmix64 finalizer over (seed, index): two campaigns with the same
   seed assign every job the same seed, independent of enumeration or
   execution order. *)
let job_seed ~campaign_seed ~index =
  let golden = 0x9E3779B97F4A7C15L in
  let mix z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let z =
    mix
      (Int64.add
         (mix (Int64.of_int campaign_seed))
         (Int64.mul golden (Int64.of_int (index + 1))))
  in
  (* Keep it a non-negative OCaml int. *)
  Int64.to_int (Int64.shift_right_logical z 2)

let plan ?(faults = Taxonomy.all_fault_kinds) ?(workloads = Workload.all)
    ?block_types ?(num_blocks = default_num_blocks)
    ?(persistence = Fault.Sticky) ?(seed = default_seed)
    (Fs.Brand (module F) as brand) =
  let block_types =
    match block_types with Some ts -> ts | None -> F.block_types
  in
  let cols = List.map (fun (w : Workload.t) -> w.Workload.col) workloads in
  (* Fault-major, then workload, then block type: the historical loop
     nest, so job order (and thus result slotting) is stable. *)
  let jobs =
    List.concat_map
      (fun fault ->
        List.concat_map
          (fun col ->
            List.map
              (fun block_type -> (fault, col, block_type))
              block_types)
          cols)
      faults
    |> List.mapi (fun index (fault, workload, block_type) ->
           {
             index;
             fs_name = F.fs_name;
             workload;
             block_type;
             fault;
             seed = job_seed ~campaign_seed:seed ~index;
           })
  in
  {
    brand;
    fs_name = F.fs_name;
    faults;
    cols;
    block_types;
    num_blocks;
    seed;
    persistence;
    jobs;
  }

let total t = List.length t.jobs
