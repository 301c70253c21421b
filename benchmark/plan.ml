module Report = Iron_report.Report
module Fs = Iron_vfs.Fs
module Driver = Iron_core.Driver
module Explore = Iron_crash.Explore
module Fuzz = Iron_fuzz.Fuzz
module Traffic = Iron_traffic.Traffic
module Runner = Iron_workloads.Runner
module Apps = Iron_workloads.Apps

type count = Sum of string * float | Max of string * float

type outcome = {
  artifact : Report.t;
  text : string;
  units : int;
  counts : count list;
  problem : string option;
}

type request = {
  label : string;
  golden : Report.t option;
  run : unit -> outcome;
}

type workload = { name : string; unit_name : string; requests : request array }

let names = [ "fingerprint"; "crash"; "fuzz"; "traffic"; "apps" ]
let default_seed = Iron_core.Experiment.default_seed
(* The worker count handed to every entry point that takes one: the
   reference machine's two cores, fixed so runs compare across hosts. *)
let jobs = 2

let count_names =
  [
    "driver.jobs_total";
    "driver.jobs_scheduled";
    "explore.states";
    "fuzz.states_raw";
    "fuzz.states_unique";
    "fuzz.peak_log_bytes";
    "traffic.blocks_touched";
    "runner.sim_ms";
  ]

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

(* The request seeds of a run: slot [k] of run seed [seed]. *)
let derive seed k = Random.State.bits (Random.State.make [| seed; k |])

let ok_or_problem ~name ~ok what =
  if ok then None else Some (name ^ ": " ^ what)

(* The request's report and its canonical text, encoded under [report]:
   [Tracer.report] in a traced run, a plain call otherwise. *)
let outcome ~report ~units ~counts ~problem of_result =
  let artifact, text =
    report (fun () ->
        let a = of_result () in
        (a, Report.to_string a))
  in
  { artifact; text; units; counts; problem }

(* Fingerprint: every brand × 24 campaign seeds, seed-major so that any
   prefix of the list has the full brand mix. The first seed is the
   golden one; ntfs has no golden fingerprint. *)
let fingerprint ~brand ~golden ~report seed =
  let seeds = default_seed :: List.init 23 (fun k -> derive seed (k + 1)) in
  List.concat_map
    (fun s ->
      List.map
        (fun (name, _) ->
          let b = brand name in
          {
            label = Printf.sprintf "fingerprint %s seed=%d" name s;
            golden =
              (if s = default_seed && name <> "ntfs" then
                 Some (golden ("fingerprint-" ^ name ^ ".json"))
               else None);
            run =
              (fun () ->
                let r = Driver.fingerprint ~jobs ~seed:s b in
                let st = r.Driver.stats in
                outcome ~report ~units:st.Driver.jobs_scheduled
                  ~counts:
                    [
                      Sum
                        ( "driver.jobs_total",
                          float_of_int st.Driver.jobs_total );
                      Sum
                        ( "driver.jobs_scheduled",
                          float_of_int st.Driver.jobs_scheduled );
                    ]
                  ~problem:None
                  (fun () -> Report.of_fingerprint ~seed:s r));
          })
        brands)
    seeds

(* Crash: the four ext3-family brands × 24 seeds, then the four golden
   configurations at 1000 states. Each brand's state budget is sized so
   its requests take about as long as the others' (an ixt3 state costs
   the most), keeping request latency one population whose quantiles
   do not sit in a gap between brands. Golden requests go last so that
   a run which cycles past the first pass repeats the evenly mixed
   requests first. *)
let crash ~brand ~golden ~report seed =
  let budgets =
    [
      ("ext3", 350); ("ixt3", 250); ("ext3-writeback", 400); ("ext3-data", 350);
    ]
  in
  let req ~seed ~max_states ~is_golden name =
    let b = brand name in
    {
      label = Printf.sprintf "crash %s seed=%d states=%d" name seed max_states;
      golden =
        (if is_golden then Some (golden ("crash-" ^ name ^ ".json")) else None);
      run =
        (fun () ->
          let r = Explore.explore ~jobs ~seed ~max_states b in
          let v = List.length r.Explore.violations in
          outcome ~report ~units:r.Explore.states
            ~counts:[ Sum ("explore.states", float_of_int r.Explore.states) ]
            ~problem:
              (ok_or_problem ~name ~ok:(name <> "ixt3" || v = 0)
                 (Printf.sprintf "%d crash violations" v))
            (fun () -> Report.of_crash ~seed ~max_states r));
    }
  in
  List.concat_map
    (fun k ->
      List.map
        (fun (name, max_states) ->
          req ~seed:(derive seed k) ~max_states ~is_golden:false name)
        budgets)
    (List.init 24 (fun k -> k + 1))
  @ List.map
      (fun (name, _) ->
        req ~seed:default_seed ~max_states:1000 ~is_golden:true name)
      budgets

(* Fuzz: seq-1 campaigns, the configuration CI gates — the two golden
   ones, then ntfs, reiserfs, ixt3 and ext3 × 25 seeds. A request is a
   whole campaign: the per-workload gaps inside a seq-2 campaign mix
   sub-millisecond scans with ~20 ms state checks, and their 90th
   percentile falls between the two. *)
let fuzz ~brand ~golden ~report seed =
  let req ~seed ~is_golden name =
    let b = brand name in
    {
      label = Printf.sprintf "fuzz %s seq=1 seed=%d" name seed;
      golden =
        (if is_golden then Some (golden ("fuzz-" ^ name ^ ".json")) else None);
      run =
        (fun () ->
          let r = Fuzz.campaign ~jobs ~seq:1 ~seed b in
          outcome ~report ~units:r.Fuzz.fz_states_raw
            ~counts:
              [
                Sum ("fuzz.states_raw", float_of_int r.Fuzz.fz_states_raw);
                Sum ("fuzz.states_unique", float_of_int r.Fuzz.fz_states);
                Max ("fuzz.peak_log_bytes", float_of_int r.Fuzz.fz_peak_bytes);
              ]
            ~problem:
              (ok_or_problem ~name
                 ~ok:(name <> "ixt3" || r.Fuzz.fz_violations = 0)
                 (Printf.sprintf "%d fuzz violations" r.Fuzz.fz_violations))
            (fun () -> Report.of_fuzz r));
    }
  in
  List.map (req ~seed:default_seed ~is_golden:true) [ "ext3"; "ixt3" ]
  @ List.concat_map
      (fun k ->
        List.map
          (req ~seed:(derive seed k) ~is_golden:false)
          [ "ntfs"; "reiserfs"; "ixt3"; "ext3" ])
      (List.init 25 (fun k -> k + 1))

(* Traffic: ext3 at 30 and ixt3 at 3 simulated seconds (an ixt3
   request has a far larger fixed cost; these take about as long),
   10 crash states, a 256 MiB sparse volume, × 49 seeds — each touches
   more blocks than the 512-block cache holds — then the two golden
   default configurations, last for the same reason as in [crash]. *)
let traffic ~brand ~golden ~report seed =
  let req ~cfg ~is_golden name =
    let b = brand name in
    {
      label =
        Printf.sprintf "traffic %s seed=%d sim_ms=%d states=%d" name
          cfg.Traffic.seed cfg.Traffic.duration_ms cfg.Traffic.states;
      golden =
        (if is_golden then Some (golden ("traffic-" ^ name ^ ".json"))
         else None);
      run =
        (fun () ->
          let r = Traffic.run ~jobs cfg b in
          let v = r.Traffic.r_viol + r.Traffic.r_mount_viol in
          outcome ~report ~units:r.Traffic.r_ops
            ~counts:
              [
                Sum
                  ( "traffic.blocks_touched",
                    float_of_int r.Traffic.r_blocks_touched );
              ]
            ~problem:
              (ok_or_problem ~name ~ok:(name <> "ixt3" || v = 0)
                 (Printf.sprintf "%d traffic violations" v))
            (fun () -> Report.of_traffic r));
    }
  in
  let small k duration_ms =
    {
      Traffic.default with
      seed = derive seed k;
      duration_ms;
      states = 10;
      num_blocks = 65_536;
    }
  in
  List.concat_map
    (fun k ->
      [
        req ~cfg:(small k 30_000) ~is_golden:false "ext3";
        req ~cfg:(small k 3_000) ~is_golden:false "ixt3";
      ])
    (List.init 49 (fun k -> k + 1))
  @ List.map
      (req ~cfg:{ Traffic.default with seed = default_seed } ~is_golden:true)
      [ "ext3"; "ixt3" ]

(* Apps: Table 6 — ext3, then the 32 ixt3 feature combinations, each
   under the four applications, at Table 6's own seed: at almost any
   other seed PostMark fails with EIO on the variants that checksum
   data without parity. The run seed only rotates the variants, which
   otherwise run in bit-reversed order so that every stretch of the
   list mixes cheap and expensive features. *)
let app_seed = 42

let apps ~wrap ~report seed =
  let rev5 i =
    List.fold_left
      (fun r bit -> (r lsl 1) lor ((i lsr bit) land 1))
      0 [ 0; 1; 2; 3; 4 ]
  in
  let variants = Array.of_list Iron_ixt3.Ixt3.all_variants in
  let shift = derive seed 1 in
  let configs =
    ("ext3", wrap Iron_ext3.Ext3.std)
    :: List.init 32 (fun i ->
           let p, b = variants.(rev5 ((i + shift) mod 32)) in
           ( Printf.sprintf "ixt3[%s]" (Iron_ext3.Profile.variant_label p),
             wrap b ))
  in
  List.concat_map
    (fun (name, b) ->
      List.map
        (fun (app : Apps.t) ->
          let label = Printf.sprintf "apps %s %s" name app.Apps.name in
          {
            label;
            golden = None;
            run =
              (fun () ->
                let metrics, sim_ms, problem =
                  match Runner.run ~seed:app_seed b app with
                  | Ok s ->
                      ( [
                          ( "sim_us",
                            int_of_float
                              (Float.round (s.Runner.elapsed_ms *. 1000.)) );
                          ("reads", s.Runner.reads);
                          ("writes", s.Runner.writes);
                          ("syncs", s.Runner.syncs);
                        ],
                        s.Runner.elapsed_ms,
                        None )
                  | Error e ->
                      ([], 0., Some (label ^ ": " ^ Iron_vfs.Errno.to_string e))
                in
                outcome ~report ~units:1
                  ~counts:[ Sum ("runner.sim_ms", sim_ms) ]
                  ~problem
                  (fun () ->
                    Report.of_metrics ~name:label ~seed:app_seed metrics));
          })
        Apps.all)
    configs

let make ~traced ~golden_dir ~seed name =
  let wrap b = if traced then Tracer.brand b else b in
  let report f = if traced then Tracer.report f else f () in
  let wrapped = List.map (fun (n, b) -> (n, wrap b)) brands in
  let brand n = List.assoc n wrapped in
  let golden file =
    match Report.load (Filename.concat golden_dir file) with
    | Ok a -> a
    | Error e -> failwith e
  in
  let build unit_name reqs =
    Ok { name; unit_name; requests = Array.of_list reqs }
  in
  try
    match name with
    | "fingerprint" -> build "jobs" (fingerprint ~brand ~golden ~report seed)
    | "crash" -> build "states" (crash ~brand ~golden ~report seed)
    | "fuzz" -> build "states" (fuzz ~brand ~golden ~report seed)
    | "traffic" -> build "ops" (traffic ~brand ~golden ~report seed)
    | "apps" -> build "runs" (apps ~wrap ~report seed)
    | _ ->
        Error
          (Printf.sprintf "unknown workload %S (one of: %s)" name
             (String.concat ", " names))
  with Failure e -> Error e
