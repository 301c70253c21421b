(* The iron command-line tool: run the paper's experiments from a shell.

     iron fingerprint [FS]...      failure-policy matrices (Figure 2/3)
     iron summary                  Table 5 technique summary
     iron bench                    Table 6 overheads
     iron space                    space overheads
     iron scrub                    the scrubbing demo
     iron robust                   detected-and-recovered counts
     iron stats                    observed campaign metrics table
     iron crash [FS]...            crash-state exploration (power cuts)
     iron fuzz [FS]...             bounded workload fuzzing (B3) over crash states
     iron explain [FS]...          crash forensics: culprit writes + timeline
     iron diff GOLDEN FRESH        compare artifact trees; exit 1 on drift
     iron golden [--update]        regenerate / check golden/ artifacts

   fingerprint, robust and bench also take --trace FILE / --metrics FILE
   to export Chrome-trace / JSONL views of the run ('-' = stdout);
   fingerprint and crash take --out DIR to write versioned golden-schema
   artifacts (Iron_report.Report) for the regression gate. *)

open Cmdliner

let brands =
  [
    ("ext3", Iron_ext3.Ext3.std);
    ("reiserfs", Iron_reiserfs.Reiserfs.brand);
    ("jfs", Iron_jfs.Jfs.brand);
    ("ntfs", Iron_ntfs.Ntfs.brand);
    ("ixt3", Iron_ext3.Ext3.ixt3);
    ("ext3-writeback", Iron_ext3.Modes.writeback);
    ("ext3-data", Iron_ext3.Modes.data);
  ]

let brand_conv =
  let parse s =
    match List.assoc_opt s brands with
    | Some b -> Ok b
    | None ->
        Error (`Msg (Printf.sprintf "unknown file system %S (try: %s)" s
                       (String.concat ", " (List.map fst brands))))
  in
  Arg.conv (parse, fun fmt b -> Format.pp_print_string fmt (Iron_vfs.Fs.brand_name b))

let fs_args =
  Arg.(value & pos_all brand_conv [ Iron_ext3.Ext3.std ]
       & info [] ~docv:"FS" ~doc:"File systems to fingerprint.")

(* -j N: worker domains for the campaign executor. The default is what
   the runtime recommends for this machine. *)
let jobs_arg =
  Arg.(value
       & opt int (Iron_util.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Number of domains that run independent experiments, the \
                 caller included, clamped to one fewer than the runtime's \
                 recommended domain count and at least 1 (default: the \
                 recommended count). The output is byte-identical for any \
                 value.")

let seed_arg =
  Arg.(value
       & opt int Iron_core.Experiment.default_seed
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed threaded through the experiment spec; two \
                 runs with the same seed are identical by construction.")

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ]
           ~doc:"Print per-campaign counters (jobs done/total, faults \
                 fired, wall-clock) from the aggregator.")

(* --trace/--metrics: export the observability layer's outputs. "-"
   means stdout. Either flag switches the campaign to ~observe:true. *)
let trace_arg =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event file (open in chrome://tracing \
                 or Perfetto) of the campaign's spans to $(docv) ('-' for \
                 stdout). The span set is byte-identical for any -j.")

let metrics_arg =
  Arg.(value
       & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the merged metrics registry as JSONL to $(docv) \
                 ('-' for stdout). Byte-identical for any -j.")

(* --out DIR: write versioned golden-schema artifacts of the run. *)
let out_arg =
  Arg.(value
       & opt (some string) None
       & info [ "out" ] ~docv:"DIR"
           ~doc:"Write the run's results as versioned golden-schema \
                 artifacts (one canonical JSON file per file system) \
                 into $(docv), for $(b,iron diff). The artifacts carry \
                 only the deterministic outputs, so two runs with the \
                 same seed produce byte-identical files.")

(* Post-parse argument validation (Iron_fuzz.Args): out-of-range
   numbers and unknown brand names get a one-line error and exit 2,
   never an exception trace. *)
let validate = function
  | Ok v -> v
  | Error msg ->
      Format.eprintf "iron: %s@." msg;
      exit 2

let known_brands = List.map fst brands

(* mkdir -p, portably enough for artifact output directories. *)
let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let save_artifact dir art =
  mkdir_p dir;
  let path = Filename.concat dir (Iron_report.Report.filename art) in
  Iron_report.Report.save path art

let write_output path contents =
  match path with
  | "-" -> print_string contents
  | file ->
      let oc = open_out file in
      output_string oc contents;
      close_out oc

let export_observed ~name ~seed ~trace ~metrics observed =
  (match trace with
  | None -> ()
  | Some path ->
      let procs =
        List.map
          (fun (name, (o : Iron_core.Driver.observed)) -> (name, o.Iron_core.Driver.spans))
          observed
      in
      let dropped =
        List.map
          (fun (name, (o : Iron_core.Driver.observed)) ->
            (name, o.Iron_core.Driver.spans_dropped))
          observed
      in
      write_output path (Iron_obs.Obs.chrome_trace ~dropped procs));
  match metrics with
  | None -> ()
  | Some path ->
      let snap =
        Iron_obs.Obs.merge
          (List.map
             (fun (_, (o : Iron_core.Driver.observed)) -> o.Iron_core.Driver.metrics)
             observed)
      in
      (* The merged registry ships as a versioned metrics artifact, so
         the same bytes serve as an iron-diffable golden. *)
      write_output path
        (Iron_report.Report.to_string
           (Iron_report.Report.of_metrics ~name ~seed
              (Iron_report.Report.metrics_of_snapshot snap)))

let pp_campaign_stats verbose report =
  if verbose then
    Format.eprintf "%s %a@." report.Iron_core.Driver.name
      Iron_core.Driver.pp_stats report.Iron_core.Driver.stats

let fingerprint_cmd =
  let run fses jobs seed verbose trace metrics out =
    let observe = trace <> None || metrics <> None in
    let observed =
      List.filter_map
        (fun brand ->
          let report = Iron_core.Driver.fingerprint ~jobs ~seed ~observe brand in
          Format.printf "%a@." Iron_core.Render.pp_report report;
          Format.printf "fired=%d detected+recovered=%d@.@."
            (Iron_core.Driver.experiments_run report)
            (Iron_core.Driver.detected_and_recovered report);
          pp_campaign_stats verbose report;
          (match out with
          | None -> ()
          | Some dir ->
              save_artifact dir (Iron_report.Report.of_fingerprint ~seed report));
          Option.map
            (fun o -> (report.Iron_core.Driver.name, o))
            report.Iron_core.Driver.observed)
        fses
    in
    export_observed ~name:"fingerprint" ~seed ~trace ~metrics observed
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:"Inject type-aware faults beneath a file system and print its failure-policy matrices (the paper's Figures 2 and 3).")
    Term.(const run $ fs_args $ jobs_arg $ seed_arg $ verbose_arg $ trace_arg
          $ metrics_arg $ out_arg)

let summary_cmd =
  let run jobs seed verbose =
    let reports =
      List.map
        (fun (_, b) ->
          let r = Iron_core.Driver.fingerprint ~jobs ~seed b in
          pp_campaign_stats verbose r;
          r)
        (* Table 5 is one row per commodity file system; ixt3 is ours,
           and the ext3 mode variants share ext3's techniques. *)
        (List.filter
           (fun (n, _) ->
             n <> "ntfs" && n <> "ixt3" && n <> "ext3-writeback"
             && n <> "ext3-data")
           brands)
    in
    Format.printf "%a@." Iron_core.Render.pp_summary (Iron_core.Render.summarize reports)
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"Table 5: which IRON techniques each file system uses.")
    Term.(const run $ jobs_arg $ seed_arg $ verbose_arg)

let bench_cmd =
  let run jobs trace metrics =
    let observe = trace <> None || metrics <> None in
    let table = Iron_workloads.Table6.compute ~observe ~jobs () in
    Format.printf "%a@." Iron_workloads.Table6.pp table;
    match table.Iron_workloads.Table6.observed with
    | None -> ()
    | Some o ->
        Option.iter
          (fun path ->
            write_output path
              (Iron_obs.Obs.chrome_trace
                 ~dropped:[ ("bench", o.spans_dropped) ]
                 [ ("bench", o.spans) ]))
          trace;
        Option.iter
          (fun path -> write_output path (Iron_obs.Obs.jsonl_of_snapshot o.metrics))
          metrics
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Table 6: time overheads of the 32 ixt3 feature combinations under SSH-Build, Web, PostMark and TPC-B.")
    Term.(const run $ jobs_arg $ trace_arg $ metrics_arg)

let space_cmd =
  let run () =
    Format.printf "%a@." Iron_workloads.Space.pp (Iron_workloads.Space.measure ())
  in
  Cmd.v
    (Cmd.info "space" ~doc:"Space overheads of checksums, replication and parity.")
    Term.(const run $ const ())

let robust_cmd =
  let run jobs seed verbose trace metrics =
    let observe = trace <> None || metrics <> None in
    let observed =
      List.filter_map
        (fun (name, brand) ->
          let r = Iron_core.Driver.fingerprint ~jobs ~seed ~observe brand in
          Format.printf "%-10s fired=%d detected+recovered=%d@." name
            (Iron_core.Driver.experiments_run r)
            (Iron_core.Driver.detected_and_recovered r);
          pp_campaign_stats verbose r;
          Option.map (fun o -> (name, o)) r.Iron_core.Driver.observed)
        brands
    in
    export_observed ~name:"robust" ~seed ~trace ~metrics observed
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Count fault scenarios each file system detects and recovers from.")
    Term.(const run $ jobs_arg $ seed_arg $ verbose_arg $ trace_arg
          $ metrics_arg)

let stats_cmd =
  let run fses jobs seed verbose out =
    List.iter
      (fun brand ->
        let report = Iron_core.Driver.fingerprint ~jobs ~seed ~observe:true brand in
        (match report.Iron_core.Driver.observed with
        | Some o ->
            Format.printf "== %s ==@.%a@." report.Iron_core.Driver.name
              Iron_obs.Obs.pp_snapshot o.Iron_core.Driver.metrics;
            (match out with
            | None -> ()
            | Some dir ->
                save_artifact dir
                  (Iron_report.Report.of_metrics
                     ~name:report.Iron_core.Driver.name ~seed
                     (Iron_report.Report.metrics_of_snapshot
                        o.Iron_core.Driver.metrics)))
        | None -> ());
        pp_campaign_stats verbose report)
      fses
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run an observed fingerprinting campaign and print the merged \
             metrics registry (disk I/O, injected faults, journal commits, \
             scrub passes) as a per-subsystem table. With --out, also \
             write each registry as a versioned metrics artifact for \
             $(b,iron diff). Deterministic: byte-identical for any -j \
             with the same --seed.")
    Term.(const run $ fs_args $ jobs_arg $ seed_arg $ verbose_arg $ out_arg)

let scrub_cmd =
  let run () =
    (* Build a damaged ixt3 volume and scrub it. *)
    let module Memdisk = Iron_disk.Memdisk in
    let module Fault = Iron_fault.Fault in
    let module Fs = Iron_vfs.Fs in
    let disk = Memdisk.create () in
    Memdisk.set_time_model disk false;
    let inj = Fault.create (Memdisk.dev disk) in
    let dev = Fault.dev inj in
    let brand = Iron_ixt3.Ixt3.full in
    (match Fs.mkfs brand dev with Ok () -> () | Error _ -> failwith "mkfs");
    (match Fs.mount brand dev with
    | Ok (Fs.Boxed ((module F), t) as boxed) ->
        (match Iron_core.Workload.fixture boxed with
        | Ok () -> ()
        | Error _ -> failwith "fixture");
        ignore (F.unmount t)
    | Error _ -> failwith "mount");
    let classify = Iron_ext3.Classifier.classify (Memdisk.peek disk) in
    let first_with label =
      let rec go b =
        if b >= 2048 then None
        else if classify b = label then Some b
        else go (b + 1)
      in
      go 0
    in
    List.iter
      (fun label ->
        match first_with label with
        | Some b ->
            ignore
              (Fault.arm inj
                 (Fault.rule ~persistence:Fault.Until_write (Fault.Block b)
                    Fault.Fail_read));
            Printf.printf "injected latent error under %s block %d\n" label b
        | None -> ())
      [ "inode"; "dir"; "data" ];
    match Iron_ixt3.Scrub.run Iron_ext3.Profile.ixt3 dev with
    | Ok r -> Format.printf "%a@." Iron_ixt3.Scrub.pp_report r
    | Error e -> Format.printf "scrub failed: %a@." Iron_vfs.Errno.pp e
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Demonstrate eager detection: damage an ixt3 volume, then scrub and repair it.")
    Term.(const run $ const ())

let crash_cmd =
  let states_arg =
    Arg.(value & opt int 1000
         & info [ "states" ] ~docv:"N"
             ~doc:"Upper bound on distinct crash states per file system \
                   (systematic states first, seeded random per-block \
                   prefixes top up to the bound).")
  in
  let check_arg =
    Arg.(value & opt_all string []
         & info [ "check" ] ~docv:"FS"
             ~doc:"Exit non-zero if $(docv) reports any invariant \
                   violation. Repeatable; used by CI to pin the \
                   transactional-checksum guarantee.")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Run the causal-forensics pass: minimize each violation \
                   to the dropped/torn writes that produced it and print \
                   the attribution chains (see $(b,iron explain) for the \
                   full timeline view). With --out, also write a \
                   forensics artifact per file system.")
  in
  let run fses jobs seed states check explain trace metrics out =
    let states = validate (Iron_fuzz.Args.positive ~what:"--states" states) in
    let jobs = validate (Iron_fuzz.Args.positive ~what:"--jobs" jobs) in
    let observe = trace <> None || metrics <> None in
    let observed = ref [] in
    let failed = ref [] in
    List.iter
      (fun brand ->
        let obs = if observe then Some (Iron_obs.Obs.create ()) else None in
        let r =
          Iron_crash.Explore.explore ~jobs ~seed ~max_states:states
            ~forensics:explain ?obs brand
        in
        Format.printf "%a@.@." Iron_crash.Explore.pp_report r;
        if explain then begin
          List.iter
            (fun ch -> Format.printf "%a@." Iron_crash.Explore.pp_chain ch)
            r.Iron_crash.Explore.chains;
          if r.Iron_crash.Explore.chains <> [] then Format.printf "@."
        end;
        (match obs with
        | Some o -> observed := (r.Iron_crash.Explore.fs, o) :: !observed
        | None -> ());
        (match out with
        | None -> ()
        | Some dir ->
            save_artifact dir
              (Iron_report.Report.of_crash ~seed ~max_states:states r);
            if explain then
              save_artifact dir
                (Iron_report.Report.of_forensics ~seed ~max_states:states r));
        if
          List.mem r.Iron_crash.Explore.fs check
          && r.Iron_crash.Explore.violations <> []
        then failed := r.Iron_crash.Explore.fs :: !failed)
      fses;
    let observed = List.rev !observed in
    (match trace with
    | None -> ()
    | Some path ->
        write_output path
          (Iron_obs.Obs.chrome_trace
             (List.map (fun (n, o) -> (n, Iron_obs.Obs.spans o)) observed)));
    (match metrics with
    | None -> ()
    | Some path ->
        write_output path
          (Iron_obs.Obs.jsonl_of_snapshot
             (Iron_obs.Obs.merge
                (List.map (fun (_, o) -> Iron_obs.Obs.snapshot o) observed))));
    match !failed with
    | [] -> ()
    | fs ->
        Format.eprintf "crash check failed: violations on %s@."
          (String.concat ", " (List.rev fs));
        exit 1
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Enumerate the disk states a power cut could leave behind \
             (any subset of each sync-delimited reorder window, torn \
             writes, a write-back cache that lies about sync) and check \
             each one: the volume mounts, recovery does not panic, every \
             fsync'd file is intact, and fsck is clean. ext3 without \
             transactional checksums replays reordered commits as \
             garbage; ixt3 detects the mismatch and refuses.")
    Term.(const run $ fs_args $ jobs_arg $ seed_arg $ states_arg $ check_arg
          $ explain_arg $ trace_arg $ metrics_arg $ out_arg)

(* --- fuzz: bounded black-box workload fuzzing (B3) --------------------- *)

let fuzz_cmd =
  (* FS arguments parse as plain strings so unknown names flow through
     Iron_fuzz.Args.brand: one-line error, exit 2 (the table-driven CLI
     test pins this). *)
  let fs_str_args =
    Arg.(value & pos_all string [ "ext3" ]
         & info [] ~docv:"FS" ~doc:"File systems to fuzz.")
  in
  let seq_arg =
    Arg.(value & opt int 1
         & info [ "seq" ] ~docv:"N"
             ~doc:"Workload-sequence bound: every workload of length <= \
                   $(docv) over the generator's name set. 1 and 2 are \
                   exhaustive (37 and 1406 workloads); 3 adds seeded \
                   sampled triples. Must be 1, 2 or 3.")
  in
  let cap_arg =
    Arg.(value & opt int 150
         & info [ "states-per-workload" ] ~docv:"N"
             ~doc:"Crash-state bound per workload (systematic states \
                   first, seeded random per-block prefixes top up).")
  in
  let samples_arg =
    Arg.(value & opt int 200
         & info [ "samples" ] ~docv:"N"
             ~doc:"Seeded seq-3 workload samples (only with --seq 3).")
  in
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Run the causal-forensics pass on each violating \
                   workload: minimize every violation to the dropped or \
                   torn writes that produced it and print the \
                   attribution chains.")
  in
  let run fses jobs seed seq cap samples explain out =
    let seq = validate (Iron_fuzz.Args.seq seq) in
    let cap =
      validate (Iron_fuzz.Args.positive ~what:"--states-per-workload" cap)
    in
    let samples = validate (Iron_fuzz.Args.positive ~what:"--samples" samples) in
    let jobs = validate (Iron_fuzz.Args.positive ~what:"--jobs" jobs) in
    let fses =
      List.map
        (fun n -> validate (Iron_fuzz.Args.brand ~known:known_brands n))
        fses
    in
    List.iter
      (fun name ->
        let brand = List.assoc name brands in
        let r =
          Iron_fuzz.Fuzz.campaign ~jobs ~seq ~states_per_workload:cap ~seed
            ~samples ~explain brand
        in
        Format.printf "%a@.@." Iron_fuzz.Fuzz.pp_report r;
        if explain && List.exists (fun c -> c.Iron_fuzz.Fuzz.cs_chains <> []) r.Iron_fuzz.Fuzz.fz_cases
        then Format.printf "%a@." Iron_fuzz.Fuzz.pp_chains r;
        match out with
        | None -> ()
        | Some dir -> save_artifact dir (Iron_report.Report.of_fuzz r))
      fses
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Bounded black-box crash fuzzing (CrashMonkey/B3): generate \
             every workload of bounded length over a small name set, run \
             each through the crash-state explorer, deduplicate crash \
             states across workloads by content hash, and check each \
             novel state against a per-workload durability oracle. \
             Violating workloads are shrunk to their smallest \
             still-violating op subsequence. Deterministic: the report \
             and the --out artifact are byte-identical for any -j with \
             the same --seed.")
    Term.(const run $ fs_str_args $ jobs_arg $ seed_arg $ seq_arg $ cap_arg
          $ samples_arg $ explain_arg $ out_arg)

(* --- traffic: multi-tenant load with blast-radius accounting ----------- *)

let traffic_cmd =
  (* FS arguments parse as plain strings so unknown names flow through
     Iron_fuzz.Args.brand: one-line error, exit 2 (the table-driven CLI
     test pins this). *)
  let fs_str_args =
    Arg.(value & pos_all string [ "ext3" ]
         & info [] ~docv:"FS" ~doc:"File systems to load.")
  in
  let clients_arg =
    Arg.(value & opt int Iron_traffic.Traffic.default.clients
         & info [ "clients" ] ~docv:"N" ~doc:"Simulated client sessions.")
  in
  let tenants_arg =
    Arg.(value & opt int Iron_traffic.Traffic.default.tenants
         & info [ "tenants" ] ~docv:"N"
             ~doc:"Tenants; client $(i,c) belongs to $(i,c) mod $(docv).")
  in
  let duration_arg =
    Arg.(value & opt int Iron_traffic.Traffic.default.duration_ms
         & info [ "duration" ] ~docv:"MS"
             ~doc:"Simulated measurement window, milliseconds.")
  in
  let zipf_arg =
    Arg.(value & opt float Iron_traffic.Traffic.default.zipf
         & info [ "zipf" ] ~docv:"THETA"
             ~doc:"Working-set skew exponent (quantized to quarters; 0 \
                   is uniform).")
  in
  let arrival_arg =
    Arg.(value & opt string "mixed"
         & info [ "arrival" ] ~docv:"KIND"
             ~doc:"Arrival process: poisson (open loop), closed \
                   (think-time loop), or mixed.")
  in
  let blocks_arg =
    Arg.(value & opt int Iron_traffic.Traffic.default.num_blocks
         & info [ "blocks" ] ~docv:"N"
             ~doc:"Logical volume size in 4 KiB blocks (the sparse image \
                   materializes only touched chunks).")
  in
  let states_arg =
    Arg.(value & opt int Iron_traffic.Traffic.default.states
         & info [ "states" ] ~docv:"N"
             ~doc:"Crash-state budget for the blast-radius phase.")
  in
  let run fses jobs seed clients tenants duration zipf arrival blocks states
      out =
    let clients = validate (Iron_fuzz.Args.positive ~what:"--clients" clients) in
    let tenants = validate (Iron_fuzz.Args.positive ~what:"--tenants" tenants) in
    let duration =
      validate (Iron_fuzz.Args.positive ~what:"--duration" duration)
    in
    let zipf = validate (Iron_fuzz.Args.zipf zipf) in
    let arrival =
      match
        Iron_traffic.Traffic.arrival_of_string
          (validate (Iron_fuzz.Args.arrival arrival))
      with
      | Some a -> a
      | None -> assert false
    in
    let blocks = validate (Iron_fuzz.Args.positive ~what:"--blocks" blocks) in
    let states = validate (Iron_fuzz.Args.positive ~what:"--states" states) in
    let jobs = validate (Iron_fuzz.Args.positive ~what:"--jobs" jobs) in
    let fses =
      List.map
        (fun n -> validate (Iron_fuzz.Args.brand ~known:known_brands n))
        fses
    in
    let cfg =
      {
        Iron_traffic.Traffic.clients;
        tenants;
        duration_ms = duration;
        zipf;
        seed;
        num_blocks = blocks;
        arrival;
        states;
      }
    in
    List.iter
      (fun name ->
        let brand = List.assoc name brands in
        let r = Iron_traffic.Traffic.run ~jobs cfg brand in
        Format.printf "%a@.@." Iron_traffic.Traffic.pp_report r;
        match out with
        | None -> ()
        | Some dir -> save_artifact dir (Iron_report.Report.of_traffic r))
      fses
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:"Multi-tenant traffic simulation: thousands of simulated \
             client sessions (Poisson or closed-loop arrivals, \
             Zipf-skewed working sets) against one sparse volume through \
             a deterministic discrete-event scheduler keyed on simulated \
             disk time, then a per-tenant blast-radius crash campaign: \
             which tenant's durable data does a crash state lose, and \
             whose write is to blame. ext3's shared journal lets one \
             tenant corrupt another; ixt3's transactional checksum \
             refuses. Deterministic: the report and the --out artifact \
             are byte-identical for any -j with the same --seed.")
    Term.(const run $ fs_str_args $ jobs_arg $ seed_arg $ clients_arg
          $ tenants_arg $ duration_arg $ zipf_arg $ arrival_arg $ blocks_arg
          $ states_arg $ out_arg)

(* --- explain: the causal-forensics console ----------------------------- *)

(* Render one recorded write as a Chrome-trace span. Exploration runs
   with the time model off, so w_seq is the clock: each write occupies
   [seq, seq+1) on the wlog lane; culprit first-drops repeat on a
   second lane so the attribution reads directly off the trace. *)
let explain_trace (r : Iron_crash.Explore.report) =
  let module E = Iron_crash.Explore in
  let span ~seq ~tid ~subsystem ~name ~blk =
    {
      Iron_obs.Obs.seq;
      tid;
      subsystem;
      name;
      t0 = float_of_int seq;
      dur = 1.;
      blk_lo = blk;
      blk_hi = blk;
      instant = false;
    }
  in
  let wlog =
    List.map
      (fun (l : E.logged) ->
        let name =
          Printf.sprintf "w%d %s%s%s" l.E.lg_seq l.E.lg_label
            (if l.E.lg_txn >= 0 then
               Printf.sprintf " txn%d/%s" l.E.lg_txn l.E.lg_role
             else "")
            (if l.E.lg_rule <> "" then " !" ^ l.E.lg_rule else "")
        in
        span ~seq:l.E.lg_seq ~tid:0
          ~subsystem:(Printf.sprintf "epoch%d" l.E.lg_epoch)
          ~name ~blk:l.E.lg_block)
      r.E.log
  in
  let culprits =
    List.concat_map
      (fun (ch : E.chain) ->
        List.map
          (fun (c : E.culprit) ->
            span ~seq:c.E.cu_first_seq ~tid:1 ~subsystem:"culprit"
              ~name:
                (Printf.sprintf "%s of %s"
                   (if c.E.cu_torn then "torn" else "dropped")
                   ch.E.ch_state)
              ~blk:c.E.cu_block)
          ch.E.ch_culprits)
      r.E.chains
  in
  Iron_obs.Obs.chrome_trace [ ("explain-" ^ r.E.fs, wlog @ culprits) ]

let explain_cmd =
  let states_arg =
    Arg.(value & opt int 1000
         & info [ "states" ] ~docv:"N"
             ~doc:"Upper bound on distinct crash states per file system.")
  in
  let run fses jobs seed states trace out =
    let states = validate (Iron_fuzz.Args.positive ~what:"--states" states) in
    let jobs = validate (Iron_fuzz.Args.positive ~what:"--jobs" jobs) in
    List.iter
      (fun brand ->
        let r =
          Iron_crash.Explore.explore ~jobs ~seed ~max_states:states
            ~forensics:true brand
        in
        Format.printf "%a@.@." Iron_crash.Explore.pp_report r;
        Format.printf "%a@.@."
          (Iron_crash.Explore.pp_timeline ~chains:r.Iron_crash.Explore.chains)
          r;
        List.iter
          (fun ch -> Format.printf "%a@." Iron_crash.Explore.pp_chain ch)
          r.Iron_crash.Explore.chains;
        (match out with
        | None -> ()
        | Some dir ->
            save_artifact dir
              (Iron_report.Report.of_forensics ~seed ~max_states:states r));
        match trace with
        | None -> ()
        | Some path -> write_output path (explain_trace r))
      fses
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Crash-state exploration with causal forensics: record the \
             provenance of every write (originating VFS op, journal \
             transaction and commit policy, epoch, fault rule), minimize \
             each invariant violation to the dropped or torn writes that \
             produced it, and render the merged timeline with culprit \
             writes flagged. --trace exports the same timeline as a \
             Chrome-trace lane; --out writes the forensics report as a \
             versioned artifact for $(b,iron diff). Deterministic: \
             byte-identical for any -j with the same --seed.")
    Term.(const run $ fs_args $ jobs_arg $ seed_arg $ states_arg $ trace_arg
          $ out_arg)

(* --- diff: the regression gate ---------------------------------------- *)

module Report = Iron_report.Report

let tol_arg =
  Arg.(value
       & opt float (100. *. Report.default_timing_tol)
       & info [ "timing-tol" ] ~docv:"PCT"
           ~doc:"Relative tolerance (percent) for timing-class bench \
                 metrics; policy matrices and crash counts always \
                 compare exactly.")

let json_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare

(* Diff one golden file against one fresh file; returns the number of
   differing cells (or exits 2 on load/compare errors). *)
let diff_pair ~timing_tol label golden fresh =
  let load path =
    match Report.load path with
    | Ok a -> a
    | Error e ->
        Format.eprintf "iron diff: %s@." e;
        exit 2
  in
  match
    Report.diff ~timing_tol:(timing_tol /. 100.) (load golden) (load fresh)
  with
  | Error e ->
      Format.eprintf "iron diff: %s: %s@." label e;
      exit 2
  | Ok [] ->
      Format.printf "ok   %s@." label;
      0
  | Ok items ->
      Format.printf "DIFF %s (%d cell%s)@.%a" label (List.length items)
        (if List.length items = 1 then "" else "s")
        Report.pp_items items;
      List.length items

let diff_cmd =
  let golden_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"GOLDEN" ~doc:"Golden artifact file or directory.")
  in
  let fresh_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FRESH" ~doc:"Fresh artifact file or directory.")
  in
  let run golden fresh timing_tol =
    let fail msg =
      Format.eprintf "iron diff: %s@." msg;
      exit 2
    in
    let total =
      match (Sys.is_directory golden, Sys.is_directory fresh) with
      | exception Sys_error e -> fail e
      | true, true ->
          let g = json_files golden and f = json_files fresh in
          let common = List.filter (fun n -> List.mem n g) f in
          if common = [] then
            fail
              (Printf.sprintf "no artifact names in common between %s and %s"
                 golden fresh);
          List.iter
            (fun n ->
              if not (List.mem n g) then
                Format.printf "note %s only in %s@." n fresh)
            f;
          List.fold_left
            (fun acc n ->
              acc
              + diff_pair ~timing_tol n (Filename.concat golden n)
                  (Filename.concat fresh n))
            0 common
      | false, false ->
          diff_pair ~timing_tol (Filename.basename fresh) golden fresh
      | true, false | false, true ->
          fail "GOLDEN and FRESH must both be files or both be directories"
    in
    if total > 0 then begin
      Format.printf "@.%d differing cell%s — fresh output drifted from golden@."
        total
        (if total = 1 then "" else "s");
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare versioned artifacts (golden vs fresh): exact on \
             failure-policy matrices and crash-exploration counts, \
             tolerance-based on timing metrics, threshold evaluation when \
             GOLDEN is a bench-thresholds artifact. Prints a cell-level \
             report and exits 1 on any drift, 2 on unreadable or \
             incomparable artifacts (including unknown schema versions).")
    Term.(const run $ golden_arg $ fresh_arg $ tol_arg)

(* --- golden: regenerate or check the committed artifacts --------------- *)

(* Forensics goldens pin the §6.1 asymmetry's causal story: ext3's
   violations attribute to commit-without-payload culprits, ixt3's
   chain list is empty (Tc refuses instead). The ext3 mode variants'
   crash counts are already pinned; their chains add bulk, not
   signal. *)
let golden_forensics_fses = [ "ext3"; "ixt3" ]

(* Fuzz goldens pin the seq-1 campaign: the corpus digest freezes every
   deduped crash state and the cases freeze each brand's violating
   workloads (minimized). Beside the §6.1 pair, reiserfs, jfs and ntfs
   are pinned because their journals are the ones still hand-rolled or
   record-level. *)
let golden_fuzz_fses = [ "ext3"; "ixt3"; "reiserfs"; "jfs"; "ntfs" ]

(* Traffic goldens pin the multi-tenant campaign for the §6.1 pair:
   load-phase throughput/latency in simulated time plus the per-tenant
   blast radius — ext3 loses tenants' durable data to other tenants'
   writes, ixt3 loses none. *)
let golden_traffic_fses = [ "ext3"; "ixt3" ]

let golden_cmd =
  let update_arg =
    Arg.(value & flag
         & info [ "update" ]
             ~doc:"Regenerate the golden artifacts in place (after a \
                   deliberate behavior change). Without this flag the \
                   fresh run is checked against the committed artifacts, \
                   exiting 1 on drift.")
  in
  let dir_arg =
    Arg.(value & opt string "golden"
         & info [ "dir" ] ~docv:"DIR" ~doc:"Golden artifact directory.")
  in
  let states_arg =
    Arg.(value & opt int 1000
         & info [ "states" ] ~docv:"N"
             ~doc:"Crash-state bound (must match the committed artifacts).")
  in
  let run update dir jobs seed states =
    (* Every registered brand is fingerprinted and crash-explored: a new
       brand joins the regression net by existing, not by being
       remembered here. *)
    let states = validate (Iron_fuzz.Args.positive ~what:"--states" states) in
    let jobs = validate (Iron_fuzz.Args.positive ~what:"--jobs" jobs) in
    let fresh = ref [] in
    List.iter
      (fun name ->
        let brand = List.assoc name brands in
        let r = Iron_core.Driver.fingerprint ~jobs ~seed brand in
        fresh := Report.of_fingerprint ~seed r :: !fresh)
      known_brands;
    List.iter
      (fun name ->
        let brand = List.assoc name brands in
        let forensics = List.mem name golden_forensics_fses in
        let r =
          Iron_crash.Explore.explore ~jobs ~seed ~max_states:states ~forensics
            brand
        in
        fresh := Report.of_crash ~seed ~max_states:states r :: !fresh;
        if forensics then
          fresh := Report.of_forensics ~seed ~max_states:states r :: !fresh)
      known_brands;
    List.iter
      (fun name ->
        let brand = List.assoc name brands in
        let r = Iron_fuzz.Fuzz.campaign ~jobs ~seq:1 ~seed brand in
        fresh := Report.of_fuzz r :: !fresh)
      golden_fuzz_fses;
    List.iter
      (fun name ->
        let brand = List.assoc name brands in
        let cfg = { Iron_traffic.Traffic.default with seed } in
        let r = Iron_traffic.Traffic.run ~jobs cfg brand in
        fresh := Report.of_traffic r :: !fresh)
      golden_traffic_fses;
    let fresh = List.rev !fresh in
    if update then begin
      List.iter (fun art -> save_artifact dir art) fresh;
      Format.printf "wrote %d golden artifacts to %s/@." (List.length fresh) dir;
      Format.printf
        "(bench-thresholds.json is hand-maintained and left untouched)@."
    end
    else begin
      let total =
        List.fold_left
          (fun acc art ->
            let name = Report.filename art in
            let path = Filename.concat dir name in
            match Report.load path with
            | Error e ->
                Format.eprintf "iron golden: %s@." e;
                exit 2
            | Ok golden -> (
                match Report.diff golden art with
                | Error e ->
                    Format.eprintf "iron golden: %s: %s@." name e;
                    exit 2
                | Ok [] ->
                    Format.printf "ok   %s@." name;
                    acc
                | Ok items ->
                    Format.printf "DIFF %s (%d cell%s)@.%a" name
                      (List.length items)
                      (if List.length items = 1 then "" else "s")
                      Report.pp_items items;
                    acc + List.length items))
          0 fresh
      in
      if total > 0 then begin
        Format.printf
          "@.%d differing cell%s — run 'iron golden --update' only if the \
           change is intended@."
          total
          (if total = 1 then "" else "s");
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "golden"
       ~doc:"Regenerate (--update) or check the committed golden artifacts: \
             fingerprint matrices and crash-exploration summaries for \
             every brand, forensics for ext3 and ixt3, seq-1 fuzz \
             campaigns for ext3, ixt3, reiserfs, jfs and ntfs, and \
             traffic for ext3 and ixt3. The check is the same \
             comparison CI's golden gate runs via $(b,iron diff).")
    Term.(const run $ update_arg $ dir_arg $ jobs_arg $ seed_arg $ states_arg)

let fsck_cmd =
  let run () =
    (* Build a volume, damage its bitmap, then check and repair. *)
    let module Memdisk = Iron_disk.Memdisk in
    let module Fs = Iron_vfs.Fs in
    let disk = Memdisk.create () in
    Memdisk.set_time_model disk false;
    let dev = Memdisk.dev disk in
    (match Fs.mkfs Iron_ext3.Ext3.std dev with Ok () -> () | Error _ -> failwith "mkfs");
    (match Fs.mount Iron_ext3.Ext3.std dev with
    | Ok (Fs.Boxed ((module F), t) as boxed) ->
        (match Iron_core.Workload.fixture boxed with
        | Ok () -> ()
        | Error _ -> failwith "fixture");
        ignore (F.unmount t)
    | Error _ -> failwith "mount");
    let lay = Iron_ext3.Ext3.layout_of_dev dev in
    let bb = Iron_ext3.Layout.bitmap_block lay 0 in
    let buf = Memdisk.peek disk bb in
    Bytes.set buf 20 '\xFF';
    Memdisk.poke disk bb buf;
    Printf.printf "scribbled on the group-0 block bitmap; running fsck --repair:\n";
    (match Iron_ext3.Fsck.run ~repair:true dev with
    | Ok r -> Format.printf "%a@." Iron_ext3.Fsck.pp_report r
    | Error e -> Format.printf "fsck failed: %a@." Iron_vfs.Errno.pp e);
    match Iron_ext3.Fsck.run dev with
    | Ok r -> Format.printf "re-check: %a@." Iron_ext3.Fsck.pp_report r
    | Error e -> Format.printf "fsck failed: %a@." Iron_vfs.Errno.pp e
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:"Demonstrate RRepair: cross-check a volume's structures and repair inconsistencies.")
    Term.(const run $ const ())

let () =
  let doc = "IRON file systems: fault injection, fingerprinting and the ixt3 prototype" in
  let info = Cmd.info "iron" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fingerprint_cmd; summary_cmd; bench_cmd; space_cmd; robust_cmd;
            stats_cmd; scrub_cmd; crash_cmd; fuzz_cmd; traffic_cmd; explain_cmd; fsck_cmd;
            diff_cmd; golden_cmd ]))
