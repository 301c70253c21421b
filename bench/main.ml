(* Regenerates every table and figure in the paper's evaluation:

   fig2    - Figure 2: failure-policy matrices for ext3 / ReiserFS / JFS
   ntfs    - §5.4: the (partial) NTFS fingerprint
   table5  - Table 5: IRON technique summary across the three Linux FSes
   fig3    - Figure 3: the ixt3 failure-policy matrix
   robust  - §6.2: count of detected-and-recovered fault scenarios
   transient - §5.6: tolerance of transient (retryable) read faults
   scratch - §3.3: spatially-local faults vs copy placement
   table6  - Table 6: time overheads of the 32 ixt3 variants
   space   - §6.2: space overheads of checksums/replication/parity
   ablate-tc - beyond-paper: transactional-checksum benefit vs commit batching
   crash-states - §6.1: crash-state exploration; what Tc buys under reordering
   fuzz    - B3 workload-fuzzing campaign: throughput + peak log residency
   scrub   - §3.2: eager (scrubbing) vs lazy latent-error discovery
   obs-overhead - cost of the observability layer on a campaign (off vs on)
   read-alloc - allocation per read: Dev.read vs Dev.read_into, fault-free
   micro   - Bechamel microbenchmarks of the hot primitives

   Run with no arguments for everything, or name the experiments.

   Options:
     -j N          worker domains for campaign/variant fan-out
     --repeat K    run each experiment K times (default 3) and keep the
                   median-wall-clock run's record. The per-experiment
                   memo caches are dropped before every run, so each
                   repeat times the full computation; the median throws
                   away the cold-start outlier that a single timed run
                   is hostage to. Every record also stashes its own
                   wall clock as a [bench.<experiment>.wall_ms] counter
                   so --check thresholds can gate throughput.
     --json FILE   write the run as a versioned golden-schema bench
                   artifact (Iron_report.Report, kind "bench"): one
                   record per experiment with {experiment, wall_ms,
                   jobs, workers, metrics}. [metrics] holds the counters
                   the experiment stashed (obs-overhead's campaign
                   registry, the microbench gauges), else {}. See
                   BENCH_fingerprint.json for the committed trajectory.
     --check FILE  evaluate a committed bench-thresholds artifact
                   (golden/bench-thresholds.json) against this run's
                   metrics and exit 1 on any violation — the native
                   replacement for CI's old inline assertions. *)

module Driver = Iron_core.Driver
module Render = Iron_core.Render
module Memdisk = Iron_disk.Memdisk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs

let hr title =
  Printf.printf "\n================ %s ================\n%!" title

(* Worker domains for experiments that fan out independent runs
   (campaigns, the 32 Table-6 variants); set by -j. *)
let workers = ref 1

(* Campaign jobs executed since the last checkpoint, for --json. *)
let jobs_executed = ref 0

(* Metrics snapshot collected by the last experiment that ran an
   observed campaign (obs-overhead does); reset per experiment and
   embedded in its --json record. *)
let collected_metrics : Iron_obs.Obs.snapshot ref = ref []

(* --- E1: Figure 2 ----------------------------------------------------- *)

let commodity_brands =
  [ Iron_ext3.Ext3.std; Iron_reiserfs.Reiserfs.brand; Iron_jfs.Jfs.brand ]

let reports = Hashtbl.create 8

let report_of brand =
  let name = Fs.brand_name brand in
  match Hashtbl.find_opt reports name with
  | Some r -> r
  | None ->
      let r = Driver.fingerprint ~jobs:!workers brand in
      jobs_executed := !jobs_executed + r.Driver.stats.Driver.jobs_total;
      Hashtbl.replace reports name r;
      r

let fig2 () =
  hr "Figure 2: failure policies of ext3, ReiserFS, JFS";
  List.iter
    (fun brand -> Format.printf "%a@." Render.pp_report (report_of brand))
    commodity_brands

let ntfs () =
  hr "Section 5.4: NTFS (partial model)";
  Format.printf "%a@." Render.pp_report (report_of Iron_ntfs.Ntfs.brand)

let table5 () =
  hr "Table 5: IRON techniques summary";
  let s = Render.summarize (List.map report_of commodity_brands) in
  Format.printf "%a@." Render.pp_summary s

let fig3 () =
  hr "Figure 3: ixt3 failure policy (all IRON features)";
  Format.printf "%a@." Render.pp_report (report_of Iron_ext3.Ext3.ixt3)

let robust () =
  hr "Robustness (6.2): scenarios detected and recovered";
  Format.printf "%-10s %8s %20s %22s@." "fs" "fired" "detected+recovered"
    "detected+still-served";
  List.iter
    (fun brand ->
      let r = report_of brand in
      Format.printf "%-10s %8d %20d %22d@." r.Driver.name
        (Driver.experiments_run r)
        (Driver.detected_and_recovered r)
        (Driver.detected_and_served r))
    (commodity_brands @ [ Iron_ext3.Ext3.ixt3 ]);
  Format.printf
    "(detected+recovered is the paper's bar - ixt3 clears its 'over 200';@.";
  Format.printf
    " note it counts crashing as recovery, which is how ReiserFS scores.@.";
  Format.printf
    " detected+still-served demands the workload finished: only ixt3's@.";
  Format.printf
    " redundancy absorbs failures instead of surfacing or crashing)@."

(* --- E6/E7: Table 6 and space ----------------------------------------- *)

let table6 () =
  hr "Table 6: time overheads of ixt3 variants";
  let t = Iron_workloads.Table6.compute ~jobs:!workers () in
  Format.printf "%a@." Iron_workloads.Table6.pp t

let space () =
  hr "Space overheads (6.2)";
  Format.printf "%a@." Iron_workloads.Space.pp (Iron_workloads.Space.measure ());
  Format.printf "(paper: metadata+checksums 3-10%%, parity 3-17%%)@."

(* --- transience (5.6: "retry is underutilized") ----------------------- *)

let transient () =
  hr "Transient faults (5.6): who absorbs a fault that clears on retry?";
  Format.printf
    "Read failures that succeed on the second attempt (Transient 1):@.";
  Format.printf "%-10s %8s %10s %10s@." "fs" "fired" "absorbed" "rate";
  List.iter
    (fun brand ->
      let r =
        Driver.fingerprint ~faults:[ Iron_core.Taxonomy.Read_failure ]
          ~persistence:(Fault.Transient 1) ~jobs:!workers brand
      in
      jobs_executed := !jobs_executed + r.Driver.stats.Driver.jobs_total;
      let fired = Driver.experiments_run r in
      (* Absorbed = the workload still completed despite the fault. *)
      let absorbed =
        List.fold_left
          (fun acc (m : Driver.matrix) ->
            List.fold_left
              (fun acc row ->
                List.fold_left
                  (fun acc col ->
                    let c = m.Driver.cell row col in
                    if c.Driver.fired > 0 && c.Driver.note = "ok" then acc + 1
                    else acc)
                  acc m.Driver.cols)
              acc m.Driver.rows)
          0 r.Driver.matrices
      in
      Format.printf "%-10s %8d %10d %9.0f%%@." r.Driver.name fired absorbed
        (100.0 *. float_of_int absorbed /. float_of_int (max 1 fired)))
    (commodity_brands @ [ Iron_ntfs.Ntfs.brand; Iron_ext3.Ext3.ixt3 ]);
  Format.printf
    "(the paper: most file systems assume a single temporarily-inaccessible@.";
  Format.printf
    " block is fatal; NTFS, the persistent one, retries through it)@."

(* --- spatial locality (2.3.2 / 3.3): the scratch experiment ----------- *)

let scratch () =
  hr "Spatial locality (3.3): a media scratch across the metadata head";
  Format.printf
    "A scratch of growing width lands on the superblock area; can the@.";
  Format.printf "volume still be mounted and its files read?@.@.";
  let brands =
    [
      ("ext3", Iron_ext3.Ext3.std);
      ("reiserfs", Iron_reiserfs.Reiserfs.brand);
      ("jfs", Iron_jfs.Jfs.brand);
      ("ixt3", Iron_ext3.Ext3.ixt3);
    ]
  in
  Format.printf "%-10s" "width";
  List.iter (fun (n, _) -> Format.printf " %9s" n) brands;
  Format.printf "@.";
  List.iter
    (fun width ->
      Format.printf "%-10d" width;
      List.iter
        (fun (_, brand) ->
          let disk =
            Memdisk.create
              ~params:
                { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 13 }
              ()
          in
          Memdisk.set_time_model disk false;
          let inj = Fault.create (Memdisk.dev disk) in
          let dev = Fault.dev inj in
          let survived =
            match Fs.mkfs brand dev with
            | Error _ -> false
            | Ok () -> (
                match Fs.mount brand dev with
                | Error _ -> false
                | Ok (Fs.Boxed ((module F), t) as boxed) -> (
                    (match Iron_core.Workload.put boxed "/f" "scratchproof" with
                    | Ok () -> ()
                    | Error _ -> ());
                    (match F.unmount t with Ok () | Error _ -> ());
                    (* The scratch: [0, width) unreadable. *)
                    ignore
                      (Fault.arm inj
                         (Fault.rule (Fault.Range (0, width - 1)) Fault.Fail_read));
                    match Fs.mount brand dev with
                    | Error _ -> false
                    | Ok boxed2 -> (
                        match Iron_core.Workload.get boxed2 "/f" with
                        | Ok s -> String.equal s "scratchproof"
                        | Error _ -> false)))
          in
          Format.printf " %9s" (if survived then "ok" else "DEAD"))
        brands;
      Format.printf "@.")
    [ 1; 2; 3; 4; 8; 16 ];
  Format.printf
    "@.(JFS keeps its copies adjacent to the primaries, so a small scratch@.";
  Format.printf
    " takes out both; ixt3's copies live at the far end of the disk)@."

(* --- E8: transactional-checksum ablation ------------------------------ *)

let ablate_tc () =
  hr "Ablation: Tc benefit vs commit batching (TPC-B)";
  Format.printf "%-8s %12s %12s %9s@." "batch" "ext3-like ms" "with Tc ms" "speedup";
  List.iter
    (fun batch ->
      let app = Iron_workloads.Apps.tpcb_batched batch in
      let t brand =
        match Iron_workloads.Runner.run brand app with
        | Ok r -> r.Iron_workloads.Runner.elapsed_ms
        | Error _ -> nan
      in
      let base = t (Iron_ixt3.Ixt3.brand ()) in
      let tc = t (Iron_ixt3.Ixt3.brand ~tc:true ()) in
      Format.printf "%-8d %12.1f %12.1f %8.2fx@." batch base tc (base /. tc))
    [ 1; 2; 4; 8; 16 ];
  Format.printf
    "(the ordering stall Tc removes is per-commit, so batching commits@.";
  Format.printf " shrinks its benefit - the crossover the design implies)@."

(* --- E9: scrubbing ----------------------------------------------------- *)

let scrub () =
  hr "Scrubbing (3.2): eager vs lazy latent-error discovery";
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 11 }
      ()
  in
  Memdisk.set_time_model disk false;
  let inj = Fault.create (Memdisk.dev disk) in
  let dev = Fault.dev inj in
  let brand = Iron_ixt3.Ixt3.full in
  (match Fs.mkfs brand dev with Ok () -> () | Error _ -> failwith "mkfs");
  let (Fs.Boxed ((module F), t)) =
    match Fs.mount brand dev with Ok b -> b | Error _ -> failwith "mount"
  in
  (match Iron_core.Workload.fixture (Fs.Boxed ((module F), t)) with
  | Ok () -> ()
  | Error _ -> failwith "fixture");
  (match F.unmount t with Ok () -> () | Error _ -> failwith "unmount");
  (* Inject ten latent sector errors across live blocks plus a silent
     corruption. *)
  let classify = Iron_ext3.Classifier.classify (Memdisk.peek disk) in
  let live =
    List.filter
      (fun b -> List.mem (classify b) [ "data"; "dir"; "indirect"; "inode" ])
      (List.init 2048 Fun.id)
  in
  let rng = Iron_util.Prng.create 99 in
  (* One latent error per block class (a parity group tolerates one
     failure per file, §6.1), modelled as sector errors that clear when
     the scrubber rewrites them from redundancy. *)
  let victims =
    List.filter_map
      (fun label ->
        List.find_opt (fun b -> classify b = label) live)
      [ "inode"; "dir"; "indirect"; "data" ]
  in
  List.iter
    (fun b ->
      ignore
        (Fault.arm inj
           (Fault.rule ~persistence:Fault.Until_write (Fault.Block b)
              Fault.Fail_read)))
    victims;
  let corrupted = List.nth live (Iron_util.Prng.int rng (List.length live)) in
  let buf = Memdisk.peek disk corrupted in
  Bytes.set buf 100 'X';
  Memdisk.poke disk corrupted buf;
  Printf.printf "injected %d latent sector errors + 1 silent corruption\n"
    (List.length victims);
  (* Lazy: mount and read every file; count what gets noticed. *)
  (match Iron_ixt3.Scrub.run Iron_ext3.Profile.ixt3 dev with
  | Ok r -> Format.printf "eager: %a@." Iron_ixt3.Scrub.pp_report r
  | Error e -> Format.printf "eager scrub failed: %a@." Iron_vfs.Errno.pp e);
  (* After the scrub repaired from redundancy, a second pass is clean. *)
  (match Iron_ixt3.Scrub.run Iron_ext3.Profile.ixt3 dev with
  | Ok r -> Format.printf "second pass: %a@." Iron_ixt3.Scrub.pp_report r
  | Error e -> Format.printf "second scrub failed: %a@." Iron_vfs.Errno.pp e)

(* --- observability overhead -------------------------------------------- *)

let obs_overhead () =
  hr "Observability overhead: one campaign, obs off vs on";
  let brand = Iron_ext3.Ext3.std in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let off, t_off = timed (fun () -> Driver.fingerprint ~jobs:!workers brand) in
  let on, t_on =
    timed (fun () -> Driver.fingerprint ~jobs:!workers ~observe:true brand)
  in
  jobs_executed :=
    !jobs_executed + off.Driver.stats.Driver.jobs_total
    + on.Driver.stats.Driver.jobs_total;
  (* The instrumentation must not change the result: same matrices. *)
  let render r = Format.asprintf "%a" Render.pp_report r in
  Printf.printf "matrices identical with obs on: %s\n"
    (if String.equal (render off) (render on) then "yes" else "NO");
  (match on.Driver.observed with
  | Some o ->
      collected_metrics := o.Driver.metrics;
      Printf.printf "observed: %d metric paths, %d spans\n"
        (List.length o.Driver.metrics)
        (List.length o.Driver.spans)
  | None -> ());
  Printf.printf "obs off: %.3fs\nobs on:  %.3fs\noverhead: %+.1f%%\n" t_off t_on
    (100.0 *. (t_on -. t_off) /. t_off)

(* --- executor hot-path microbenchmarks --------------------------------- *)

(* Allocation per read on the executor's device stack, measured
   directly. Results are stashed in [collected_metrics] as counters so
   --json records them alongside the campaign trajectory. *)

let stash name v =
  collected_metrics :=
    !collected_metrics @ [ (name, Iron_obs.Obs.Counter v) ]

let bench_params seed =
  { Memdisk.default_params with Memdisk.num_blocks = 2048; seed }

let read_alloc () =
  hr "Per-read allocation on the fault-free path";
  Printf.printf
    "The executor's device stack (Memdisk under the fault injector),\n\
     fault-free: [read] allocates a fresh block per call, [read_into]\n\
     fills the caller's buffer. Even blocks are dirty (overlay reads),\n\
     odd blocks come from the frozen image.\n\n";
  let n = 50_000 in
  let disk = Memdisk.create ~params:(bench_params 6) () in
  Memdisk.set_time_model disk false;
  for b = 0 to 1023 do
    Memdisk.poke disk (2 * b) (Bytes.make 4096 (Char.chr (b land 0xff)))
  done;
  let inj = Fault.create (Memdisk.dev disk) in
  Fault.set_tracing inj false;
  let dev = Fault.dev inj in
  let buf = Bytes.create dev.Iron_disk.Dev.block_size in
  let run name f =
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    for i = 0 to n - 1 do
      f (i land 2047)
    done;
    let per = (Gc.allocated_bytes () -. a0) /. float_of_int n in
    Printf.printf "%-10s %10.1f alloc bytes/read\n" name per;
    stash ("bench.read_alloc." ^ name ^ ".bytes_per_read") (int_of_float per);
    per
  in
  let r = run "read" (fun b -> ignore (dev.Iron_disk.Dev.read b)) in
  let ri =
    run "read_into" (fun b -> ignore (dev.Iron_disk.Dev.read_into b buf))
  in
  Printf.printf "\nread_into allocates %.0f bytes/read (read: %.0f)\n" ri r

(* --- crash-state exploration (6.1) ------------------------------------ *)

let crash_states () =
  hr "Crash states (6.1): what the transactional checksum buys";
  Printf.printf
    "Enumerate the disk states a power cut could leave behind (any\n\
     subset of each sync-delimited reorder window, torn writes, a\n\
     write-back cache that lies about sync) and check each one.\n\n";
  Format.printf "%-8s %8s %8s %12s %12s %8s %8s@." "fs" "states" "log"
    "violations" "data-loss" "fsck" "Tc-det";
  List.iter
    (fun brand ->
      let t0 = Unix.gettimeofday () in
      let r = Iron_crash.Explore.explore ~jobs:!workers brand in
      let dt = Unix.gettimeofday () -. t0 in
      let open Iron_crash.Explore in
      Format.printf "%-8s %8d %8d %12d %12d %8d %8d  (%.1fs)@." r.fs r.states
        r.log_len (List.length r.violations) (count r Data_loss)
        (count r Fsck_unclean) r.tc_detected dt;
      stash ("bench.crash_states." ^ r.fs ^ ".states") r.states;
      stash ("bench.crash_states." ^ r.fs ^ ".violations")
        (List.length r.violations);
      stash ("bench.crash_states." ^ r.fs ^ ".tc_detected") r.tc_detected)
    [ Iron_ext3.Ext3.std; Iron_ext3.Ext3.ixt3 ];
  Printf.printf
    "\n\
     (ext3 syncs the journal payload, then writes the commit block: a\n\
     cache that reorders across that sync makes replay trust a commit\n\
     whose payload never landed. ixt3's transactional checksum spots\n\
     the mismatch and refuses the transaction - zero violations.)\n"

(* --- workload fuzzing -------------------------------------------------- *)

(* Seq-1 campaign throughput over the §6.1 pair, plus the peak write-log
   residency the Wlog.take ownership discipline is meant to bound: a
   campaign records thousands of workloads through short-lived
   recorders, and must never hold more than one workload's payload per
   job. *)
let fuzz_throughput () =
  hr "Workload fuzzing (B3): campaign throughput and residency";
  Printf.printf
    "A seq-1 campaign per file system: states/sec across enumeration,\n\
     cross-workload dedup and checking; peak bytes a single recorded\n\
     write log retained.\n\n";
  Format.printf "%-8s %9s %8s %8s %11s %11s %10s@." "fs" "workloads" "raw"
    "unique" "violations" "states/s" "peak-log";
  List.iter
    (fun brand ->
      let t0 = Unix.gettimeofday () in
      let r = Iron_fuzz.Fuzz.campaign ~jobs:!workers ~seq:1 brand in
      let dt = Unix.gettimeofday () -. t0 in
      let open Iron_fuzz.Fuzz in
      let rate = int_of_float (float r.fz_states_raw /. Float.max dt 0.001) in
      Format.printf "%-8s %9d %8d %8d %11d %11d %9dB  (%.1fs)@." r.fz_fs
        r.fz_workloads r.fz_states_raw r.fz_states r.fz_violations rate
        r.fz_peak_bytes dt;
      stash ("bench.fuzz." ^ r.fz_fs ^ ".states_per_sec") rate;
      stash ("bench.fuzz." ^ r.fz_fs ^ ".peak_log_bytes") r.fz_peak_bytes;
      stash ("bench.fuzz." ^ r.fz_fs ^ ".violations") r.fz_violations)
    [ Iron_ext3.Ext3.std; Iron_ext3.Ext3.ixt3 ]

(* --- multi-tenant traffic ---------------------------------------------- *)

(* The traffic campaign over the §6.1 pair. Simulated-time throughput
   and latency quantiles are deterministic (exact bench metrics, with
   floors and ceilings in bench-thresholds.json); wall clock rides
   along under the usual tolerance. *)
let traffic () =
  hr "Multi-tenant traffic: load plus per-tenant blast radius";
  Printf.printf
    "1000 simulated clients over 4 tenants against one sparse 1 GiB\n\
     volume, then the blast-radius crash campaign: whose durable data\n\
     does a crash state lose, and whose write is to blame.\n\n";
  Format.printf "%-8s %6s %10s %9s %9s %11s %9s %8s@." "fs" "ops" "ops/sim-s"
    "p50-us" "p99-us" "violations" "cross" "Tc-det";
  List.iter
    (fun brand ->
      let t0 = Unix.gettimeofday () in
      let r =
        Iron_traffic.Traffic.run ~jobs:!workers Iron_traffic.Traffic.default
          brand
      in
      let dt = Unix.gettimeofday () -. t0 in
      let open Iron_traffic.Traffic in
      Format.printf "%-8s %6d %10d %9d %9d %11d %9d %8d  (%.1fs)@." r.r_fs
        r.r_ops r.r_ops_per_sim_sec r.r_p50_us r.r_p99_us r.r_viol r.r_cross
        r.r_tc dt;
      stash ("bench.traffic." ^ r.r_fs ^ ".ops") r.r_ops;
      stash ("bench.traffic." ^ r.r_fs ^ ".ops_per_sim_sec") r.r_ops_per_sim_sec;
      stash ("bench.traffic." ^ r.r_fs ^ ".p50_us") r.r_p50_us;
      stash ("bench.traffic." ^ r.r_fs ^ ".p99_us") r.r_p99_us;
      stash ("bench.traffic." ^ r.r_fs ^ ".violations") r.r_viol;
      stash ("bench.traffic." ^ r.r_fs ^ ".cross_tenant") r.r_cross;
      stash ("bench.traffic." ^ r.r_fs ^ ".tc_detected") r.r_tc;
      stash ("bench.traffic." ^ r.r_fs ^ ".blocks_touched") r.r_blocks_touched)
    [ Iron_ext3.Ext3.std; Iron_ext3.Ext3.ixt3 ];
  Printf.printf
    "\n\
     (Same traffic, same crashes: ext3's shared journal spreads one\n\
     tenant's torn commit into other tenants' durable files; ixt3's\n\
     transactional checksum refuses the transaction instead.)\n"

(* --- causal forensics overhead ----------------------------------------- *)

let forensics_overhead () =
  hr "Causal forensics: what violation attribution costs";
  Printf.printf
    "The same ext3 exploration, without and with the forensics pass\n\
     (greedy culprit minimization: one O(dirty) re-materialize and\n\
     re-check per probe).\n\n";
  let run forensics =
    let t0 = Unix.gettimeofday () in
    let r = Iron_crash.Explore.explore ~jobs:!workers ~forensics Iron_ext3.Ext3.std in
    (r, Unix.gettimeofday () -. t0)
  in
  let base, t_off = run false in
  let full, t_on = run true in
  let open Iron_crash.Explore in
  let probes = List.fold_left (fun n c -> n + c.ch_probes) 0 full.chains in
  let culprits =
    List.fold_left (fun n c -> n + List.length c.ch_culprits) 0 full.chains
  in
  Printf.printf "explore:            %.2fs (%d states, %d violations)\n" t_off
    base.states
    (List.length base.violations);
  Printf.printf "explore+forensics:  %.2fs (%d chains, %d probes, %d culprits)\n"
    t_on
    (List.length full.chains)
    probes culprits;
  Printf.printf "overhead: %+.1f%%\n" (100.0 *. (t_on -. t_off) /. t_off);
  stash "bench.forensics.states" full.states;
  stash "bench.forensics.chains" (List.length full.chains);
  stash "bench.forensics.probes" probes;
  stash "bench.forensics.culprits" culprits;
  stash "bench.forensics.overhead_pct"
    (int_of_float (100.0 *. (t_on -. t_off) /. Float.max t_off 0.001))

(* --- microbenchmarks --------------------------------------------------- *)

let micro () =
  hr "Bechamel microbenchmarks";
  let open Bechamel in
  let block = Bytes.make 4096 'x' in
  let sha1 = Test.make ~name:"sha1-4k" (Staged.stage (fun () -> Iron_util.Sha1.digest block)) in
  let crc = Test.make ~name:"crc32-4k" (Staged.stage (fun () -> Iron_util.Crc32.digest block)) in
  let fs_cycle =
    Test.make ~name:"mkfs+mount+creat+sync"
      (Staged.stage (fun () ->
           let d =
             Memdisk.create
               ~params:{ Memdisk.default_params with Memdisk.num_blocks = 512; seed = 3 }
               ()
           in
           Memdisk.set_time_model d false;
           let dev = Memdisk.dev d in
           ignore (Fs.mkfs Iron_ext3.Ext3.std dev);
           match Fs.mount Iron_ext3.Ext3.std dev with
           | Ok (Fs.Boxed ((module F), t)) ->
               (match F.creat t "/x" with
               | Ok fd ->
                   ignore (F.write t fd ~off:0 (Bytes.make 100 'y'));
                   ignore (F.close t fd)
               | Error _ -> ());
               ignore (F.sync t)
           | Error _ -> ()))
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let tests = Test.make_grouped ~name:"iron" [ sha1; crc; fs_cycle ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "%-28s %12.1f ns/run\n" name est
      | Some [] | None -> Printf.printf "%-28s (no estimate)\n" name)
    results

(* --- driver ------------------------------------------------------------ *)

let all_experiments =
  [
    ("fig2", fig2);
    ("ntfs", ntfs);
    ("table5", table5);
    ("fig3", fig3);
    ("robust", robust);
    ("transient", transient);
    ("scratch", scratch);
    ("table6", table6);
    ("space", space);
    ("ablate-tc", ablate_tc);
    ("crash-states", crash_states);
    ("fuzz", fuzz_throughput);
    ("traffic", traffic);
    ("forensics-overhead", forensics_overhead);
    ("scrub", scrub);
    ("obs-overhead", obs_overhead);
    ("read-alloc", read_alloc);
    ("micro", micro);
  ]

(* --- options + JSON perf records --------------------------------------- *)

type record = {
  experiment : string;
  wall_s : float;
  jobs : int;  (** campaign jobs executed during the experiment *)
  rec_workers : int;
  metrics : Iron_obs.Obs.snapshot;
      (** observed-campaign counters, when the experiment ran one *)
}

(* Counters only: histograms carry bucket arrays that would swamp the
   perf-trajectory file; the full registry is what --metrics (on the
   iron CLI) is for. *)
let counter_metrics snap =
  List.filter_map
    (function
      | p, Iron_obs.Obs.Counter n -> Some (p, n)
      | _, (Iron_obs.Obs.Gauge _ | Iron_obs.Obs.Histogram _) -> None)
    snap

module Report = Iron_report.Report

let bench_artifact records =
  Report.bench_of_records
    (List.map
       (fun r ->
         {
           Report.experiment = r.experiment;
           wall_ms = int_of_float (r.wall_s *. 1000.);
           b_jobs = r.jobs;
           b_workers = r.rec_workers;
           metrics = counter_metrics r.metrics;
         })
       records)

let write_json file records =
  Report.save file (bench_artifact records);
  Printf.eprintf "wrote %d bench record%s to %s (schema v%d)\n%!"
    (List.length records)
    (if List.length records = 1 then "" else "s")
    file Report.schema_version

(* --check FILE: the native replacement for CI's inline assertions.
   Loads a committed bench-thresholds artifact and evaluates every rule
   against the union of this run's stashed metrics. *)
let check_thresholds file records =
  match Report.load file with
  | Error e ->
      Printf.eprintf "bench --check: %s\n" e;
      exit 2
  | Ok (Report.Thresholds th) -> (
      match bench_artifact records with
      | Report.Bench b -> (
          match Report.check_thresholds th b with
          | [] ->
              Printf.printf "thresholds: all %d rule%s from %s hold\n"
                (List.length th.Report.rules)
                (if List.length th.Report.rules = 1 then "" else "s")
                file
          | items ->
              Format.printf "threshold violations (%d):@.%a"
                (List.length items) Report.pp_items items;
              exit 1)
      | _ -> assert false)
  | Ok art ->
      Printf.eprintf
        "bench --check: %s is a %s artifact, expected bench-thresholds\n" file
        (Report.kind_name art);
      exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_file = ref None in
  let check_file = ref None in
  let repeat = ref 3 in
  let rec parse names = function
    | [] -> List.rev names
    | ("-j" | "--jobs") :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> workers := j
        | Some _ | None ->
            Printf.eprintf "-j expects a positive integer, got %s\n" n;
            exit 2);
        parse names rest
    | "--repeat" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> repeat := k
        | Some _ | None ->
            Printf.eprintf "--repeat expects a positive integer, got %s\n" n;
            exit 2);
        parse names rest
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse names rest
    | "--check" :: file :: rest ->
        check_file := Some file;
        parse names rest
    | ("-j" | "--jobs" | "--repeat" | "--json" | "--check") :: [] ->
        Printf.eprintf "missing argument\n";
        exit 2
    | n :: rest -> parse (n :: names) rest
  in
  let names = parse [] args in
  let chosen =
    match names with
    | [] -> all_experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n all_experiments with
            | Some f -> Some (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (have: %s)\n" n
                  (String.concat ", " (List.map fst all_experiments));
                None)
          names
  in
  let records =
    List.map
      (fun (name, f) ->
        let one () =
          (* Drop the cross-experiment fingerprint memo so every repeat
             times the full computation, not a cache hit. *)
          Hashtbl.reset reports;
          jobs_executed := 0;
          collected_metrics := [];
          let t0 = Unix.gettimeofday () in
          f ();
          let wall_s = Unix.gettimeofday () -. t0 in
          {
            experiment = name;
            wall_s;
            jobs = !jobs_executed;
            rec_workers = !workers;
            metrics = !collected_metrics;
          }
        in
        let runs =
          List.init !repeat (fun i ->
              let r = one () in
              if !repeat > 1 then
                Printf.eprintf "  [%s] repeat %d/%d: %.0f ms\n%!" name (i + 1)
                  !repeat (r.wall_s *. 1000.);
              r)
        in
        let sorted =
          List.sort (fun a b -> compare a.wall_s b.wall_s) runs
        in
        let median = List.nth sorted ((List.length sorted - 1) / 2) in
        {
          median with
          metrics =
            median.metrics
            @ [
                ( Printf.sprintf "bench.%s.wall_ms" name,
                  Iron_obs.Obs.Counter (int_of_float (median.wall_s *. 1000.))
                );
              ];
        })
      chosen
  in
  (match !json_file with
  | Some file -> write_json file records
  | None -> ());
  match !check_file with
  | Some file -> check_thresholds file records
  | None -> ()
