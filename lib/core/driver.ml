(* The fingerprinting engine, split into three layers (see driver.mli):

     spec       Experiment.plan — pure enumeration of the campaign
     executor   prepare + run_job — one job, one private device stack
     aggregator aggregate — fold observations into matrices, spec order

   The executor is embarrassingly parallel: every job restores its own
   device onto a shared (immutable) image, builds its own
   injector and file-system instance, and returns a plain record.
   Worker count therefore cannot change the output — the determinism
   contract the tests pin down.

   Hot-path discipline (this is the loop the whole reproduction's
   throughput hangs on — ~2220 jobs per Figure-2 sweep):

   - images are frozen {!Iron_disk.Memdisk} images: restoring a job's
     disk drops an overlay (O(dirty)) instead of blitting 8 MiB;
   - dry traces are frozen into arrays with a precomputed
     (direction, block type) -> target block index, so target lookup
     is O(1) and jobs without a target are resolved at spec time and
     never enter the worker pool;
   - each worker domain keeps one scratch device and (in the
     unobserved case) one injector, reused across jobs;
   - reads below the block cache go through the zero-copy
     [Dev.read_into] path. *)

module Memdisk = Iron_disk.Memdisk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Obs = Iron_obs.Obs

type cell = {
  applicable : bool;
  fired : int;
  detection : Taxonomy.detection list;
  recovery : Taxonomy.recovery list;
  note : string;
}

let empty_cell =
  { applicable = false; fired = 0; detection = []; recovery = []; note = "" }

type matrix = {
  fs_name : string;
  fault : Taxonomy.fault_kind;
  rows : string list;
  cols : char list;
  cell : string -> char -> cell;
}

type stats = {
  jobs_total : int;
  jobs_scheduled : int;
  jobs_applicable : int;
  jobs_fired : int;
  faults_fired : int;
  workers : int;
  wall_s : float;
}

(* Campaign observability, split along the determinism boundary:
   [metrics]/[spans] are keyed on simulated time and merged in spec
   order, so they are byte-stable across worker counts; [exec] holds
   wall-clock executor telemetry (pool queue/run histograms) and is
   the one part allowed to vary run to run. *)
type observed = {
  metrics : Obs.snapshot;
  spans : Obs.span list;
  spans_dropped : int;
  exec : Obs.snapshot;
}

type report = {
  name : string;
  block_types : string list;
  matrices : matrix list;
  stats : stats;
  observed : observed option;
}

(* What we could observe from one faulted run (§4.3's visible outputs). *)
type observation = {
  api : (unit, Errno.t) result;
  panicked : bool;
  readonly : bool;
  mount_failed : bool;
  klog : Klog.entry list;
  verify_failed : bool;
}

(* ------------------------------------------------------------------ *)
(* Executor: running one workload against a (possibly faulty) device   *)
(* ------------------------------------------------------------------ *)

(* [arm] is invoked at the start of the fault window; the injector's
   trace is cleared there too, so the trace covers exactly the window. *)
let run_workload brand inj dev (w : Workload.t) ~arm =
  let catch_panic f =
    try (f (), false) with Klog.Panic _ -> (Error Errno.EIO, true)
  in
  let klog_of (Fs.Boxed ((module F), t)) = Klog.entries (F.klog t) in
  let ro_of (Fs.Boxed ((module F), t)) = F.is_readonly t in
  let quiet_unmount (Fs.Boxed ((module F), t)) =
    try ignore (F.unmount t) with Klog.Panic _ -> ()
  in
  match w.Workload.kind with
  | Workload.Ops -> (
      match Fs.mount brand dev with
      | Error e ->
          {
            api = Error e;
            panicked = false;
            readonly = false;
            mount_failed = true;
            klog = [];
            verify_failed = false;
          }
      | Ok boxed ->
          arm ();
          Fault.clear_trace inj;
          let api, panicked = catch_panic (fun () -> w.Workload.run boxed) in
          let verify_failed =
            (not panicked) && api = Ok ()
            &&
            match w.Workload.verify with
            | Some v -> ( try not (v boxed) with Klog.Panic _ -> false)
            | None -> false
          in
          (* A panicked kernel does not get to unmount; otherwise the
             unmount (with its checkpoint) is part of the observation
             window — that is where ignored write errors surface. *)
          let panicked =
            panicked
            ||
            if panicked then false
            else (
              try
                quiet_unmount boxed;
                false
              with Klog.Panic _ -> true)
          in
          {
            api;
            panicked;
            readonly = ro_of boxed;
            mount_failed = false;
            klog = klog_of boxed;
            verify_failed;
          })
  | Workload.Umount_op -> (
      match Fs.mount brand dev with
      | Error e ->
          {
            api = Error e;
            panicked = false;
            readonly = false;
            mount_failed = true;
            klog = [];
            verify_failed = false;
          }
      | Ok (Fs.Boxed ((module F), t) as boxed) ->
          let _pre, _ = catch_panic (fun () -> w.Workload.run boxed) in
          arm ();
          Fault.clear_trace inj;
          let api, panicked = catch_panic (fun () -> F.unmount t) in
          {
            api;
            panicked;
            readonly = F.is_readonly t;
            mount_failed = false;
            klog = Klog.entries (F.klog t);
            verify_failed = false;
          })
  | Workload.Mount_op | Workload.Recovery_op -> (
      arm ();
      Fault.clear_trace inj;
      match catch_panic (fun () -> Result.map (fun b -> `Mounted b) (Fs.mount brand dev)) with
      | Ok (`Mounted boxed), false ->
          let obs =
            {
              api = Ok ();
              panicked = false;
              readonly = ro_of boxed;
              mount_failed = false;
              klog = klog_of boxed;
              verify_failed = false;
            }
          in
          quiet_unmount boxed;
          obs
      | Error e, panicked ->
          {
            api = Error e;
            panicked;
            readonly = false;
            mount_failed = true;
            klog = [];
            verify_failed = false;
          }
      | Ok (`Mounted _), true -> assert false)

(* ------------------------------------------------------------------ *)
(* Inference                                                           *)
(* ------------------------------------------------------------------ *)

let infer fault (obs : observation) trace target =
  let fired =
    List.length
      (List.filter
         (fun (e : Fault.event) ->
           e.Fault.block = target
           &&
           match e.Fault.outcome with
           | Fault.Io_error _ -> fault <> Taxonomy.Corruption
           | Fault.Io_corrupted -> fault = Taxonomy.Corruption
           | Fault.Io_ok -> false)
         trace)
  in
  if fired = 0 then
    { applicable = true; fired = 0; detection = []; recovery = []; note = "no-trigger" }
  else begin
    let klog_errors =
      List.exists (fun (e : Klog.entry) -> e.Klog.level = Klog.Error) obs.klog
      || List.exists (fun (e : Klog.entry) -> e.Klog.level = Klog.Warning) obs.klog
    in

    (* Routine operation also touches replica and parity blocks (they
       are written on every update), so trace presence is not evidence
       of recovery; the file system's own recovery messages are. *)
    let redundancy_access =
      Klog.mentions obs.klog
        [ "replica"; "parity"; "alternate"; "recovered from copy" ]
    in
    (* Checksum machinery reads its tables on every verified access, so
       trace presence alone is not evidence; the mismatch message is. *)
    let checksum_detected = Klog.mentions obs.klog [ "checksum" ] in
    let reacted =
      obs.api <> Ok () || obs.panicked || obs.readonly || obs.mount_failed
      || klog_errors || redundancy_access
    in
    let detection =
      match fault with
      | Taxonomy.Read_failure | Taxonomy.Write_failure ->
          if reacted then [ Taxonomy.DErrorCode ] else [ Taxonomy.DZero ]
      | Taxonomy.Corruption ->
          if checksum_detected then [ Taxonomy.DRedundancy ]
          else if reacted then [ Taxonomy.DSanity ]
          else [ Taxonomy.DZero ]
    in
    let recovery = ref [] in
    let add r = if not (List.mem r !recovery) then recovery := r :: !recovery in
    (* Retry = the same failed request reissued back-to-back. Distant
       repeats (the same block written by two different checkpoints,
       say) are independent uses, not retries. (Corrupted reads succeed,
       so repeats there are ordinary re-reads, not retries.) *)
    (match fault with
    | Taxonomy.Read_failure | Taxonomy.Write_failure ->
        let failed_seqs =
          List.filter_map
            (fun (e : Fault.event) ->
              match e.Fault.outcome with
              | Fault.Io_error _ when e.Fault.block = target -> Some e.Fault.seq
              | Fault.Io_error _ | Fault.Io_ok | Fault.Io_corrupted -> None)
            trace
        in
        let rec adjacent = function
          | a :: (b :: _ as rest) -> b - a <= 1 || adjacent rest
          | [ _ ] | [] -> false
        in
        if adjacent failed_seqs then add Taxonomy.RRetry
    | Taxonomy.Corruption -> ());
    if redundancy_access then add Taxonomy.RRedundancy;
    if obs.panicked || obs.readonly || obs.mount_failed then add Taxonomy.RStop;
    (match obs.api with Error _ when not obs.panicked -> add Taxonomy.RPropagate | _ -> ());
    if obs.verify_failed then add Taxonomy.RGuess;
    if Klog.mentions obs.klog [ "repair" ] then add Taxonomy.RRepair;
    if Klog.mentions obs.klog [ "remapped" ] then add Taxonomy.RRemap;
    let recovery =
      match !recovery with [] -> [ Taxonomy.RZero ] | rs -> List.rev rs
    in
    let note =
      match obs.api with
      | Ok () -> if obs.panicked then "panic" else "ok"
      | Error e -> Errno.to_string e
    in
    { applicable = true; fired; detection; recovery; note }
  end

(* ------------------------------------------------------------------ *)
(* Executor: prepared campaign context (shared, immutable after build) *)
(* ------------------------------------------------------------------ *)

(* Per workload column, the frozen outcome of one fault-free dry run:
   the labelled I/O trace as a plain array, the block→type oracle as a
   plain string array, and an index from (direction, block type) to
   the first matching block — the job's fault target. None of it is
   mutated once [prepare] returns, which is what makes sharing it
   across worker domains safe. *)
type dry = {
  trace : Fault.event array;
  labels : string array;
  targets : (Fault.direction * string, int) Hashtbl.t;
}

(* [base]/[crash] are frozen images each job restores into its
   private scratch device; restoring one is O(blocks the previous job
   dirtied), not O(volume size). *)
type prepared = {
  base : Memdisk.image;
  crash : Memdisk.image;
  dry : (char, dry) Hashtbl.t;
}

let fresh_disk ~num_blocks ~seed =
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = num_blocks; seed }
      ()
  in
  Memdisk.set_time_model disk false;
  disk

let image_for prepared (w : Workload.t) =
  match w.Workload.kind with
  | Workload.Recovery_op -> prepared.crash
  | Workload.Ops | Workload.Mount_op | Workload.Umount_op -> prepared.base

let want_dir = function
  | Taxonomy.Read_failure | Taxonomy.Corruption -> Fault.Read
  | Taxonomy.Write_failure -> Fault.Write

(* O(1) target lookup: the block the job's fault will be armed on, or
   [None] when the dry run never touched a block of that type in that
   direction — decided at spec time, before anything is scheduled. *)
let target_for prepared (job : Experiment.job) =
  match Hashtbl.find_opt prepared.dry job.Experiment.workload with
  | None -> None
  | Some d ->
      Hashtbl.find_opt d.targets
        (want_dir job.Experiment.fault, job.Experiment.block_type)

(* Sequential phase: build the base and crash images, then dry-run each
   workload once to learn its labelled I/O trace. This is ~1 run per
   workload vs ~|block types| × |faults| runs per workload in the
   parallel phase, so it is not worth parallelizing. *)
let prepare_uncached ?obs (c : Experiment.t) =
  (* With a context, the whole phase runs with it ambient (so journal
     spans from deep inside the file systems land here) and the device
     stack is instrumented: disk -> injector(obs) -> Dev.observe. *)
  let instrument f =
    match obs with
    | None -> f ()
    | Some o ->
        Obs.with_ambient o (fun () ->
            Obs.span o ~subsystem:"driver" "prepare" f)
  in
  instrument @@ fun () ->
  let (Fs.Brand (module F)) = c.Experiment.brand in
  let brand = c.Experiment.brand in
  let num_blocks = c.Experiment.num_blocks in
  let disk = fresh_disk ~num_blocks ~seed:c.Experiment.seed in
  let inj = Fault.create ?obs (Memdisk.dev disk) in
  let dev = Fault.dev inj in
  let dev =
    match obs with None -> dev | Some o -> Iron_disk.Dev.observe o dev
  in
  (* Base image: mkfs + fixture, cleanly unmounted. *)
  (match Fs.mkfs brand dev with
  | Ok () -> ()
  | Error e -> failwith ("fingerprint: mkfs failed: " ^ Errno.to_string e));
  (match Fs.mount brand dev with
  | Error e -> failwith ("fingerprint: mount failed: " ^ Errno.to_string e)
  | Ok (Fs.Boxed ((module M), t) as boxed) -> (
      (match Workload.fixture boxed with
      | Ok () -> ()
      | Error e -> failwith ("fingerprint: fixture failed: " ^ Errno.to_string e));
      match M.unmount t with
      | Ok () -> ()
      | Error e -> failwith ("fingerprint: unmount failed: " ^ Errno.to_string e)));
  let base = Memdisk.snapshot disk in
  (* Crash image for the recovery column. *)
  (match Fs.mount brand dev with
  | Error e -> failwith ("fingerprint: remount failed: " ^ Errno.to_string e)
  | Ok boxed -> (
      match Workload.crash_prep boxed with
      | Ok () -> () (* instance abandoned: this is the crash *)
      | Error e -> failwith ("fingerprint: crash prep failed: " ^ Errno.to_string e)));
  let crash = Memdisk.snapshot disk in
  let image_for_kind (w : Workload.t) =
    match w.Workload.kind with
    | Workload.Recovery_op -> crash
    | Workload.Ops | Workload.Mount_op | Workload.Umount_op -> base
  in
  (* Pre-workload labels depend only on the starting image, which is
     the same [base] (or [crash]) for every column: freeze each image's
     oracle once instead of rebuilding it per dry run. *)
  let labels_of_image img =
    Memdisk.restore disk img;
    let cls = F.classifier (Memdisk.peek disk) in
    Array.init num_blocks cls
  in
  let base_labels = labels_of_image base in
  let crash_labels = if crash == base then base_labels else labels_of_image crash in
  (* Dry runs: learn, per workload, the labelled I/O trace; freeze it
     and index the fault targets. *)
  let dry = Hashtbl.create 32 in
  List.iter
    (fun col ->
      let w = Workload.find col in
      let img = image_for_kind w in
      let pre = if img == crash then crash_labels else base_labels in
      Memdisk.restore disk img;
      Fault.disarm_all inj;
      Fault.clear_trace inj;
      let _obs = run_workload brand inj dev w ~arm:(fun () -> ()) in
      let post = F.classifier (Memdisk.peek disk) in
      (* Freeze the combined oracle into a pure table. *)
      let labels =
        Array.init num_blocks (fun b ->
            let l = post b in
            if l = "?" then pre.(b) else l)
      in
      let trace =
        Array.of_list
          (List.map
             (fun (e : Fault.event) ->
               { e with Fault.label = labels.(e.Fault.block) })
             (Fault.trace inj))
      in
      let targets = Hashtbl.create 64 in
      Array.iter
        (fun (e : Fault.event) ->
          let key = (e.Fault.dir, e.Fault.label) in
          if not (Hashtbl.mem targets key) then
            Hashtbl.add targets key e.Fault.block)
        trace;
      Hashtbl.replace dry col { trace; labels; targets })
    c.Experiment.cols;
  { base; crash; dry }

(* Campaigns on the same brand and geometry share one [prepared]: the
   images and dry traces are a pure function of (brand, num_blocks,
   seed, columns) — workload definitions are static — and [prepared]
   is immutable once built, so sharing it is exactly as safe as
   sharing it across worker domains already was. The key holds the
   brand VALUE (physical identity), never its name: differently tuned
   variants can share a name but never a brand value. Observed
   campaigns bypass the cache so their prepare-phase spans and device
   metrics stay exact. *)
let prep_cache : ((Fs.brand * int * int * char list) * prepared) list ref =
  ref []

let prep_mutex = Mutex.create ()
let prep_cache_cap = 32

let prepare ?obs (c : Experiment.t) =
  match obs with
  | Some _ -> prepare_uncached ?obs c
  | None -> (
      let brand = c.Experiment.brand in
      let nb = c.Experiment.num_blocks in
      let seed = c.Experiment.seed in
      let cols = c.Experiment.cols in
      let hit =
        Mutex.protect prep_mutex (fun () ->
            List.find_opt
              (fun ((b, n, s, cl), _) ->
                b == brand && n = nb && s = seed && cl = cols)
              !prep_cache)
      in
      match hit with
      | Some (_, p) -> p
      | None ->
          let p = prepare_uncached c in
          Mutex.protect prep_mutex (fun () ->
              if List.length !prep_cache >= prep_cache_cap then
                prep_cache := [];
              prep_cache := ((brand, nb, seed, cols), p) :: !prep_cache);
          p)

(* Each worker domain keeps one scratch device and one injector,
   reused across jobs ([Memdisk.restore] gives a job exactly the image it
   asked for, in O(dirty)). Without the reuse, every job's device
   stack hammers the shared major heap and the parallel run is slower
   than the serial one. Keyed by geometry so campaigns with different
   [num_blocks] do not mix. *)
type scratch = { s_disk : Memdisk.t; s_inj : Fault.t; s_dev : Iron_disk.Dev.t }

let scratch_slot : (int * scratch) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let scratch ~num_blocks ~seed =
  let slot = Domain.DLS.get scratch_slot in
  match !slot with
  | Some (nb, s) when nb = num_blocks -> s
  | Some _ | None ->
      let disk = fresh_disk ~num_blocks ~seed in
      let inj = Fault.create (Memdisk.dev disk) in
      let s = { s_disk = disk; s_inj = inj; s_dev = Fault.dev inj } in
      slot := Some (num_blocks, s);
      s

(* One job, one private device stack: restore this domain's scratch
   device onto the job's image, arm exactly one fault, run, infer.
   Self-contained and re-entrant — this is the unit the domain pool
   schedules. [target] comes from the spec-time index. *)
let run_armed ?obs prepared (c : Experiment.t) (job : Experiment.job) ~target =
  let (Fs.Brand (module F)) = c.Experiment.brand in
  let w = Workload.find job.Experiment.workload in
  let labels = (Hashtbl.find prepared.dry job.Experiment.workload).labels in
  let s = scratch ~num_blocks:c.Experiment.num_blocks ~seed:job.Experiment.seed in
  let disk = s.s_disk in
  (* Unobserved jobs reuse the scratch injector; an observed job needs
     a private one with its context baked in (exactly what the
     pre-reuse executor built per job). *)
  let inj, dev =
    match obs with
    | None ->
        Fault.disarm_all s.s_inj;
        Fault.clear_trace s.s_inj;
        (s.s_inj, s.s_dev)
    | Some o ->
        let inj = Fault.create ~obs:o (Memdisk.dev disk) in
        (inj, Iron_disk.Dev.observe o (Fault.dev inj))
  in
  Memdisk.restore disk (image_for prepared w);
  Fault.set_classifier inj (fun b ->
      if b >= 0 && b < Array.length labels then labels.(b) else "?");
  let kind =
    match job.Experiment.fault with
    | Taxonomy.Read_failure -> Fault.Fail_read
    | Taxonomy.Write_failure -> Fault.Fail_write
    | Taxonomy.Corruption ->
        Fault.Corrupt
          (match F.corrupt_field job.Experiment.block_type with
          | Some tweak -> Fault.Tweak tweak
          | None -> Fault.Noise (job.Experiment.seed lxor target lxor 0xBAD))
  in
  let arm () =
    ignore
      (Fault.arm inj
         (Fault.rule ~persistence:c.Experiment.persistence (Fault.Block target)
            kind))
  in
  let brand = c.Experiment.brand in
  let obs_run = run_workload brand inj dev w ~arm in
  let ftrace = Fault.trace inj in
  (* Speculative restore for the next job: consecutive jobs in a chunk
     almost always run the same workload on the same image, so dropping
     this job's overlay now leaves the scratch device already clean and
     based on the right image — the next job's [Memdisk.restore] is then a
     no-op rebase instead of an O(dirty) teardown on its critical
     path. A wrong guess costs nothing: restore to a different image is
     the same O(dirty) work either way. *)
  Memdisk.restore disk (image_for prepared w);
  infer job.Experiment.fault obs_run ftrace target

(* The public per-job entry: resolve the target through the index and
   run, under a per-job span when observed. Kept for no-target jobs so
   an observed campaign emits exactly one [driver.job] span per spec
   job whether or not the job was worth scheduling. *)
let run_job ?obs prepared (c : Experiment.t) (job : Experiment.job) =
  let instrument f =
    match obs with
    | None -> f ()
    | Some o ->
        Obs.with_ambient o (fun () ->
            Obs.span o ~subsystem:"driver" "job" f)
  in
  instrument @@ fun () ->
  match target_for prepared job with
  | None -> empty_cell
  | Some target -> run_armed ?obs prepared c job ~target

(* ------------------------------------------------------------------ *)
(* Aggregator                                                          *)
(* ------------------------------------------------------------------ *)

(* Fold per-job cells (in spec order — the pool slots results by job
   index) into the Figure-2/3 matrices. Worker count and completion
   order cannot appear anywhere in the output; only [stats] mentions
   the execution (and the renderers never print it). *)
let aggregate (c : Experiment.t) ~workers ~scheduled ~wall_s cells =
  let (Fs.Brand (module F)) = c.Experiment.brand in
  let results = Hashtbl.create 256 in
  List.iter2
    (fun (job : Experiment.job) cell ->
      Hashtbl.replace results
        (job.Experiment.fault, job.Experiment.block_type, job.Experiment.workload)
        cell)
    c.Experiment.jobs cells;
  let matrices =
    List.map
      (fun fault ->
        {
          fs_name = F.fs_name;
          fault;
          rows = c.Experiment.block_types;
          cols = c.Experiment.cols;
          cell =
            (fun row col ->
              match Hashtbl.find_opt results (fault, row, col) with
              | Some cl -> cl
              | None -> empty_cell);
        })
      c.Experiment.faults
  in
  let stats =
    List.fold_left
      (fun s (cl : cell) ->
        {
          s with
          jobs_applicable = (s.jobs_applicable + if cl.applicable then 1 else 0);
          jobs_fired = (s.jobs_fired + if cl.fired > 0 then 1 else 0);
          faults_fired = s.faults_fired + cl.fired;
        })
      {
        jobs_total = Experiment.total c;
        jobs_scheduled = scheduled;
        jobs_applicable = 0;
        jobs_fired = 0;
        faults_fired = 0;
        workers;
        wall_s;
      }
      cells
  in
  {
    name = F.fs_name;
    block_types = c.Experiment.block_types;
    matrices;
    stats;
    observed = None;
  }

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

(* Spec-time pruning: resolve every job's target through the index and
   only send the armed ones to the pool. [stitch] re-slots pool
   results against the full spec, substituting [skip] for the pruned
   jobs — output order stays spec order by construction. *)
let partition_targets prepared (c : Experiment.t) =
  let tagged =
    List.map (fun job -> (job, target_for prepared job)) c.Experiment.jobs
  in
  let armed =
    List.filter_map
      (fun (job, t) -> Option.map (fun target -> (job, target)) t)
      tagged
  in
  (tagged, armed)

let stitch tagged ran ~skip =
  let rec go tagged ran =
    match tagged with
    | [] ->
        assert (ran = []);
        []
    | (job, None) :: rest -> skip job :: go rest ran
    | (_, Some _) :: rest -> (
        match ran with
        | cell :: more -> cell :: go rest more
        | [] -> assert false)
  in
  go tagged ran

let run ?(jobs = 1) ?(observe = false) (c : Experiment.t) =
  let t0 = Unix.gettimeofday () in
  if not observe then begin
    let prepared = prepare c in
    let tagged, armed = partition_targets prepared c in
    let ran =
      Iron_util.Pool.map_jobs ~jobs
        (fun (job, target) -> run_armed prepared c job ~target)
        armed
    in
    let cells = stitch tagged ran ~skip:(fun _ -> empty_cell) in
    let wall_s = Unix.gettimeofday () -. t0 in
    aggregate c ~workers:(max 1 jobs) ~scheduled:(List.length armed) ~wall_s
      cells
  end
  else begin
    (* Observed campaign. Each job gets a private context created and
       snapshotted inside the job function, so metrics and spans are a
       pure function of the job spec; the aggregator merges them in
       spec order (the pool slots results by index, and pruned jobs
       are re-slotted by [stitch]), which keeps the exported
       observables independent of [-j]. Executor telemetry
       (wall-clock pool waits) goes to a separate shared context that
       is deliberately kept out of the deterministic snapshot. *)
    let prep_obs = Obs.create () in
    let prepared = prepare ~obs:prep_obs c in
    let prep_snap = Obs.snapshot prep_obs in
    let prep_spans = Obs.with_tid 0 (Obs.spans prep_obs) in
    let exec_obs = Obs.create () in
    let on_job ~queue_ms ~run_ms =
      Obs.incr exec_obs "pool.job";
      Obs.observe exec_obs "pool.job.queue_ms" queue_ms;
      Obs.observe exec_obs "pool.job.run_ms" run_ms
    in
    (* Pruned jobs still get their per-job context and [driver.job]
       span (run_job resolves to the same no-target path), so the
       deterministic exports are byte-identical to an unpruned run;
       they just never occupy a pool slot. *)
    let observed_job job =
      let obs = Obs.create () in
      let cell = run_job ~obs prepared c job in
      let snap = Obs.snapshot obs in
      let spans = Obs.spans obs in
      let dropped = Obs.spans_dropped obs in
      Obs.release obs;
      (cell, snap, spans, dropped)
    in
    let tagged, armed = partition_targets prepared c in
    let ran =
      Iron_util.Pool.map_jobs ~on_job ~jobs
        (fun (job, _target) -> observed_job job)
        armed
    in
    let results = stitch tagged ran ~skip:observed_job in
    let wall_s = Unix.gettimeofday () -. t0 in
    let cells = List.map (fun (cell, _, _, _) -> cell) results in
    let metrics =
      Obs.merge (prep_snap :: List.map (fun (_, snap, _, _) -> snap) results)
    in
    let spans =
      prep_spans
      @ List.concat
          (List.mapi
             (fun i (_, _, spans, _) -> Obs.with_tid (i + 1) spans)
             results)
    in
    let spans_dropped =
      Obs.spans_dropped prep_obs
      + List.fold_left (fun n (_, _, _, d) -> n + d) 0 results
    in
    let report =
      aggregate c ~workers:(max 1 jobs) ~scheduled:(List.length armed) ~wall_s
        cells
    in
    {
      report with
      observed =
        Some { metrics; spans; spans_dropped; exec = Obs.snapshot exec_obs };
    }
  end

let fingerprint ?faults ?workloads ?block_types ?num_blocks ?persistence ?seed
    ?jobs ?observe brand =
  run ?jobs ?observe
    (Experiment.plan ?faults ?workloads ?block_types ?num_blocks ?persistence
       ?seed brand)

let pp_stats fmt s =
  Format.fprintf fmt
    "campaign: %d jobs (%d scheduled, %d applicable, %d fired), %d faults injected, %d worker%s, %.2fs"
    s.jobs_total s.jobs_scheduled s.jobs_applicable s.jobs_fired s.faults_fired
    s.workers
    (if s.workers = 1 then "" else "s")
    s.wall_s

let fold_cells report f init =
  List.fold_left
    (fun acc m ->
      List.fold_left
        (fun acc row ->
          List.fold_left (fun acc col -> f acc (m.cell row col)) acc m.cols)
        acc m.rows)
    init report.matrices

let experiments_run report =
  fold_cells report (fun n c -> if c.fired > 0 then n + 1 else n) 0

let detected_and_recovered report =
  fold_cells report
    (fun n c ->
      if
        c.fired > 0
        && (not (List.mem Taxonomy.DZero c.detection))
        && not (List.mem Taxonomy.RZero c.recovery)
      then n + 1
      else n)
    0

let detected_and_served report =
  fold_cells report
    (fun n c ->
      if
        c.fired > 0
        && (not (List.mem Taxonomy.DZero c.detection))
        && c.note = "ok"
        && not (List.mem Taxonomy.RGuess c.recovery)
      then n + 1
      else n)
    0

(* The deterministic counter set a golden artifact pins: everything a
   campaign's spec + aggregator decide, nothing the executor's wall
   clock or worker count can move. *)
let counters report =
  [
    ("experiments_run", experiments_run report);
    ("detected_and_recovered", detected_and_recovered report);
    ("detected_and_served", detected_and_served report);
    ("jobs_total", report.stats.jobs_total);
    ("jobs_scheduled", report.stats.jobs_scheduled);
    ("jobs_applicable", report.stats.jobs_applicable);
    ("jobs_fired", report.stats.jobs_fired);
    ("faults_fired", report.stats.faults_fired);
  ]
