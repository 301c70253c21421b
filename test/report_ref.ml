(* The artifact codec and differ as they stood before every record's
   encoder, decoder and differ were derived from one field list. Kept
   verbatim below this header as the reference that the differential
   tests in test_report.ml hold [Iron_report.Report] to. *)

module Json = Iron_report.Json

module Driver = Iron_core.Driver
module Render = Iron_core.Render
module Taxonomy = Iron_core.Taxonomy
module Explore = Iron_crash.Explore

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type fp_cell = {
  row : string;
  col : string;
  applicable : bool;
  fired : int;
  detection : string list;
  recovery : string list;
  note : string;
  d_sym : string;
  r_sym : string;
}

type fp_matrix = {
  fault : string;
  rows : string list;
  cols : string list;
  cells : fp_cell list;
}

type fingerprint = {
  fp_fs : string;
  fp_seed : int;
  matrices : fp_matrix list;
  counters : (string * int) list;
}

type crash_violation = { state : string; v_kind : string; detail : string }

type crash = {
  c_fs : string;
  c_seed : int;
  c_max_states : int;
  log_len : int;
  epochs : int;
  states : int;
  tc_detected : int;
  kind_counts : (string * int) list;
  violations : crash_violation list;
}

type forensic_culprit = {
  fc_block : int;
  fc_label : string;
  fc_role : string;
  fc_txn : int;
  fc_policy : string;
  fc_epoch : int;
  fc_op : int;
  fc_op_label : string;
  fc_rule : string;
  fc_first_seq : int;
  fc_dropped : int;
  fc_torn : bool;
}

type forensic_chain = {
  fh_state : string;
  fh_kind : string;
  fh_detail : string;
  fh_probes : int;
  fh_summary : string;
  fh_culprits : forensic_culprit list;
}

type forensic_log = {
  fl_seq : int;
  fl_block : int;
  fl_epoch : int;
  fl_label : string;
  fl_txn : int;
  fl_policy : string;
  fl_role : string;
  fl_op : int;
  fl_op_label : string;
  fl_rule : string;
}

type forensics = {
  fo_fs : string;
  fo_seed : int;
  fo_max_states : int;
  fo_chains : forensic_chain list;
  fo_log : forensic_log list;
}

type metrics_set = {
  m_name : string;
  m_seed : int;
  m_metrics : (string * int) list;
}

type bench_record = {
  experiment : string;
  wall_ms : int;
  b_jobs : int;
  b_workers : int;
  metrics : (string * int) list;
}

type bench = { records : bench_record list }

type rule = {
  metric : string;
  max_value : int option;
  min_value : int option;
  le_metric : string option;
}

type thresholds = { rules : rule list }

type fuzz_case = {
  z_index : int;
  z_workload : string;
  z_minimized : string;
  z_checked : int;
  z_violations : int;
  z_first : crash_violation list;
}

type fuzz = {
  z_fs : string;
  z_seq : int;
  z_seed : int;
  z_cap : int;
  z_workloads : int;
  z_log_writes : int;
  z_states_raw : int;
  z_states : int;
  z_violations : int;
  z_tc : int;
  z_kinds : (string * int) list;
  z_corpus : string;
  z_cases : fuzz_case list;
}

type traffic_tenant = {
  tt_tenant : int;
  tt_ops : int;
  tt_viol : int;
  tt_cross : int;
}

type traffic = {
  t_fs : string;
  t_clients : int;
  t_tenants : int;
  t_seed : int;
  t_zipf_milli : int;
  t_arrival : string;
  t_duration_ms : int;
  t_num_blocks : int;
  t_ops : int;
  t_errors : int;
  t_ops_per_sim_sec : int;
  t_p50_us : int;
  t_p99_us : int;
  t_op_counts : (string * int) list;
  t_chunks_touched : int;
  t_blocks_touched : int;
  t_states : int;
  t_tc : int;
  t_viol : int;
  t_cross : int;
  t_mount_viol : int;
  t_per_tenant : traffic_tenant list;
}

type t =
  | Fingerprint of fingerprint
  | Crash of crash
  | Forensics of forensics
  | Metrics of metrics_set
  | Bench of bench
  | Thresholds of thresholds
  | Fuzz of fuzz
  | Traffic of traffic

let kind_name = function
  | Fingerprint _ -> "fingerprint"
  | Crash _ -> "crash"
  | Forensics _ -> "forensics"
  | Metrics _ -> "metrics"
  | Bench _ -> "bench"
  | Thresholds _ -> "bench-thresholds"
  | Fuzz _ -> "fuzz"
  | Traffic _ -> "traffic"

let filename = function
  | Fingerprint f -> Printf.sprintf "fingerprint-%s.json" f.fp_fs
  | Crash c -> Printf.sprintf "crash-%s.json" c.c_fs
  | Forensics f -> Printf.sprintf "forensics-%s.json" f.fo_fs
  | Metrics m -> Printf.sprintf "metrics-%s.json" m.m_name
  | Bench _ -> "bench.json"
  | Thresholds _ -> "bench-thresholds.json"
  | Fuzz z -> Printf.sprintf "fuzz-%s.json" z.z_fs
  | Traffic t -> Printf.sprintf "traffic-%s.json" t.t_fs

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let of_fingerprint ~seed (r : Driver.report) =
  let matrices =
    List.map
      (fun (m : Driver.matrix) ->
        let cells =
          List.concat_map
            (fun row ->
              List.filter_map
                (fun col ->
                  let c = m.Driver.cell row col in
                  if not c.Driver.applicable then None
                  else
                    Some
                      {
                        row;
                        col = String.make 1 col;
                        applicable = c.Driver.applicable;
                        fired = c.Driver.fired;
                        detection =
                          List.map Taxonomy.detection_name c.Driver.detection;
                        recovery =
                          List.map Taxonomy.recovery_name c.Driver.recovery;
                        note = c.Driver.note;
                        d_sym = Render.cell_symbols ~which:`Detection c;
                        r_sym = Render.cell_symbols ~which:`Recovery c;
                      })
                m.Driver.cols)
            m.Driver.rows
        in
        {
          fault = Taxonomy.fault_kind_name m.Driver.fault;
          rows = m.Driver.rows;
          cols = List.map (String.make 1) m.Driver.cols;
          cells;
        })
      r.Driver.matrices
  in
  Fingerprint
    {
      fp_fs = r.Driver.name;
      fp_seed = seed;
      matrices;
      counters = Driver.counters r;
    }

let crash_kinds =
  [ Explore.Unmountable; Explore.Data_loss; Explore.Fsck_unclean; Explore.Panic ]

let of_crash ~seed ~max_states (r : Explore.report) =
  Crash
    {
      c_fs = r.Explore.fs;
      c_seed = seed;
      c_max_states = max_states;
      log_len = r.Explore.log_len;
      epochs = r.Explore.rep_epochs;
      states = r.Explore.states;
      tc_detected = r.Explore.tc_detected;
      kind_counts =
        List.map
          (fun k -> (Explore.kind_to_string k, Explore.count r k))
          crash_kinds;
      violations =
        List.map
          (fun (v : Explore.violation) ->
            {
              state = v.Explore.state;
              v_kind = Explore.kind_to_string v.Explore.v_kind;
              detail = v.Explore.detail;
            })
          r.Explore.violations;
    }

let of_forensics ~seed ~max_states (r : Explore.report) =
  Forensics
    {
      fo_fs = r.Explore.fs;
      fo_seed = seed;
      fo_max_states = max_states;
      fo_chains =
        List.map
          (fun (ch : Explore.chain) ->
            {
              fh_state = ch.Explore.ch_state;
              fh_kind = Explore.kind_to_string ch.Explore.ch_kind;
              fh_detail = ch.Explore.ch_detail;
              fh_probes = ch.Explore.ch_probes;
              fh_summary = ch.Explore.ch_summary;
              fh_culprits =
                List.map
                  (fun (c : Explore.culprit) ->
                    {
                      fc_block = c.Explore.cu_block;
                      fc_label = c.Explore.cu_label;
                      fc_role = c.Explore.cu_role;
                      fc_txn = c.Explore.cu_txn;
                      fc_policy = c.Explore.cu_policy;
                      fc_epoch = c.Explore.cu_epoch;
                      fc_op = c.Explore.cu_op;
                      fc_op_label = c.Explore.cu_op_label;
                      fc_rule = c.Explore.cu_rule;
                      fc_first_seq = c.Explore.cu_first_seq;
                      fc_dropped = c.Explore.cu_dropped;
                      fc_torn = c.Explore.cu_torn;
                    })
                  ch.Explore.ch_culprits;
            })
          r.Explore.chains;
      fo_log =
        List.map
          (fun (l : Explore.logged) ->
            {
              fl_seq = l.Explore.lg_seq;
              fl_block = l.Explore.lg_block;
              fl_epoch = l.Explore.lg_epoch;
              fl_label = l.Explore.lg_label;
              fl_txn = l.Explore.lg_txn;
              fl_policy = l.Explore.lg_policy;
              fl_role = l.Explore.lg_role;
              fl_op = l.Explore.lg_op;
              fl_op_label = l.Explore.lg_op_label;
              fl_rule = l.Explore.lg_rule;
            })
          r.Explore.log;
    }

let of_metrics ~name ~seed metrics =
  Metrics { m_name = name; m_seed = seed; m_metrics = metrics }

(* Counters verbatim; gauges truncated (they are whole numbers in the
   deterministic registries, e.g. queue depths); histograms as their
   count and truncated sum — all integers, so the artifact compares
   exactly. *)
let metrics_of_snapshot snap =
  List.concat_map
    (fun (path, v) ->
      match v with
      | Iron_obs.Obs.Counter n -> [ (path, n) ]
      | Iron_obs.Obs.Gauge g -> [ (path, int_of_float g) ]
      | Iron_obs.Obs.Histogram h ->
          [
            (path ^ ".count", h.Iron_obs.Obs.count);
            (path ^ ".sum", int_of_float h.Iron_obs.Obs.sum);
          ])
    snap

let bench_of_records records = Bench { records }

(* The fuzz artifact keeps the campaign's deterministic identity: the
   corpus digest pins every crash state checked, the cases pin every
   violating workload with its minimized form. Chains stay out — the
   goldens are regenerated without [--explain]. *)
let of_fuzz (r : Iron_fuzz.Fuzz.report) =
  Fuzz
    {
      z_fs = r.Iron_fuzz.Fuzz.fz_fs;
      z_seq = r.Iron_fuzz.Fuzz.fz_seq;
      z_seed = r.Iron_fuzz.Fuzz.fz_seed;
      z_cap = r.Iron_fuzz.Fuzz.fz_cap;
      z_workloads = r.Iron_fuzz.Fuzz.fz_workloads;
      z_log_writes = r.Iron_fuzz.Fuzz.fz_log_writes;
      z_states_raw = r.Iron_fuzz.Fuzz.fz_states_raw;
      z_states = r.Iron_fuzz.Fuzz.fz_states;
      z_violations = r.Iron_fuzz.Fuzz.fz_violations;
      z_tc = r.Iron_fuzz.Fuzz.fz_tc;
      z_kinds = r.Iron_fuzz.Fuzz.fz_kinds;
      z_corpus = r.Iron_fuzz.Fuzz.fz_corpus;
      z_cases =
        List.map
          (fun (c : Iron_fuzz.Fuzz.case) ->
            {
              z_index = c.Iron_fuzz.Fuzz.cs_index;
              z_workload = c.Iron_fuzz.Fuzz.cs_workload;
              z_minimized = c.Iron_fuzz.Fuzz.cs_minimized;
              z_checked = c.Iron_fuzz.Fuzz.cs_checked;
              z_violations = c.Iron_fuzz.Fuzz.cs_violations;
              z_first =
                List.map
                  (fun (state, v_kind, detail) -> { state; v_kind; detail })
                  c.Iron_fuzz.Fuzz.cs_first;
            })
          r.Iron_fuzz.Fuzz.fz_cases;
    }

(* The traffic artifact is all-integer by the simulator's design
   (quantized skew, bucket-bound latencies, simulated time), so it
   compares exactly like the other deterministic kinds. *)
let of_traffic (r : Iron_traffic.Traffic.report) =
  Traffic
    {
      t_fs = r.Iron_traffic.Traffic.r_fs;
      t_clients = r.Iron_traffic.Traffic.r_clients;
      t_tenants = r.Iron_traffic.Traffic.r_tenants;
      t_seed = r.Iron_traffic.Traffic.r_seed;
      t_zipf_milli = r.Iron_traffic.Traffic.r_zipf_milli;
      t_arrival = r.Iron_traffic.Traffic.r_arrival;
      t_duration_ms = r.Iron_traffic.Traffic.r_duration_ms;
      t_num_blocks = r.Iron_traffic.Traffic.r_num_blocks;
      t_ops = r.Iron_traffic.Traffic.r_ops;
      t_errors = r.Iron_traffic.Traffic.r_errors;
      t_ops_per_sim_sec = r.Iron_traffic.Traffic.r_ops_per_sim_sec;
      t_p50_us = r.Iron_traffic.Traffic.r_p50_us;
      t_p99_us = r.Iron_traffic.Traffic.r_p99_us;
      t_op_counts = r.Iron_traffic.Traffic.r_op_counts;
      t_chunks_touched = r.Iron_traffic.Traffic.r_chunks_touched;
      t_blocks_touched = r.Iron_traffic.Traffic.r_blocks_touched;
      t_states = r.Iron_traffic.Traffic.r_states;
      t_tc = r.Iron_traffic.Traffic.r_tc;
      t_viol = r.Iron_traffic.Traffic.r_viol;
      t_cross = r.Iron_traffic.Traffic.r_cross;
      t_mount_viol = r.Iron_traffic.Traffic.r_mount_viol;
      t_per_tenant =
        List.map
          (fun (ts : Iron_traffic.Traffic.tenant_stat) ->
            {
              tt_tenant = ts.Iron_traffic.Traffic.ts_tenant;
              tt_ops = ts.Iron_traffic.Traffic.ts_ops;
              tt_viol = ts.Iron_traffic.Traffic.ts_viol;
              tt_cross = ts.Iron_traffic.Traffic.ts_cross;
            })
          r.Iron_traffic.Traffic.r_tenant;
    }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let json_counters kvs = Json.Assoc (List.map (fun (k, v) -> (k, Json.Int v)) kvs)

let json_of_cell c =
  Json.Assoc
    [
      ("row", Json.String c.row);
      ("col", Json.String c.col);
      ("applicable", Json.Bool c.applicable);
      ("fired", Json.Int c.fired);
      ("detection", Json.List (List.map (fun s -> Json.String s) c.detection));
      ("recovery", Json.List (List.map (fun s -> Json.String s) c.recovery));
      ("note", Json.String c.note);
      ("d", Json.String c.d_sym);
      ("r", Json.String c.r_sym);
    ]

let json_of t =
  let head kind = [ ("schema_version", Json.Int schema_version); ("kind", Json.String kind) ] in
  match t with
  | Fingerprint f ->
      Json.Assoc
        (head "fingerprint"
        @ [
            ("fs", Json.String f.fp_fs);
            ("seed", Json.Int f.fp_seed);
            ("counters", json_counters f.counters);
            ( "matrices",
              Json.List
                (List.map
                   (fun m ->
                     Json.Assoc
                       [
                         ("fault", Json.String m.fault);
                         ( "rows",
                           Json.List (List.map (fun s -> Json.String s) m.rows)
                         );
                         ( "cols",
                           Json.List (List.map (fun s -> Json.String s) m.cols)
                         );
                         ("cells", Json.List (List.map json_of_cell m.cells));
                       ])
                   f.matrices) );
          ])
  | Crash c ->
      Json.Assoc
        (head "crash"
        @ [
            ("fs", Json.String c.c_fs);
            ("seed", Json.Int c.c_seed);
            ("max_states", Json.Int c.c_max_states);
            ("log_len", Json.Int c.log_len);
            ("epochs", Json.Int c.epochs);
            ("states", Json.Int c.states);
            ("tc_detected", Json.Int c.tc_detected);
            ("counts", json_counters c.kind_counts);
            ( "violations",
              Json.List
                (List.map
                   (fun v ->
                     Json.Assoc
                       [
                         ("state", Json.String v.state);
                         ("kind", Json.String v.v_kind);
                         ("detail", Json.String v.detail);
                       ])
                   c.violations) );
          ])
  | Forensics f ->
      Json.Assoc
        (head "forensics"
        @ [
            ("fs", Json.String f.fo_fs);
            ("seed", Json.Int f.fo_seed);
            ("max_states", Json.Int f.fo_max_states);
            ( "chains",
              Json.List
                (List.map
                   (fun ch ->
                     Json.Assoc
                       [
                         ("state", Json.String ch.fh_state);
                         ("kind", Json.String ch.fh_kind);
                         ("detail", Json.String ch.fh_detail);
                         ("probes", Json.Int ch.fh_probes);
                         ("summary", Json.String ch.fh_summary);
                         ( "culprits",
                           Json.List
                             (List.map
                                (fun c ->
                                  Json.Assoc
                                    [
                                      ("block", Json.Int c.fc_block);
                                      ("label", Json.String c.fc_label);
                                      ("role", Json.String c.fc_role);
                                      ("txn", Json.Int c.fc_txn);
                                      ("policy", Json.String c.fc_policy);
                                      ("epoch", Json.Int c.fc_epoch);
                                      ("op", Json.Int c.fc_op);
                                      ("op_label", Json.String c.fc_op_label);
                                      ("rule", Json.String c.fc_rule);
                                      ("first_seq", Json.Int c.fc_first_seq);
                                      ("dropped", Json.Int c.fc_dropped);
                                      ("torn", Json.Bool c.fc_torn);
                                    ])
                                ch.fh_culprits) );
                       ])
                   f.fo_chains) );
            ( "log",
              Json.List
                (List.map
                   (fun l ->
                     Json.Assoc
                       [
                         ("seq", Json.Int l.fl_seq);
                         ("block", Json.Int l.fl_block);
                         ("epoch", Json.Int l.fl_epoch);
                         ("label", Json.String l.fl_label);
                         ("txn", Json.Int l.fl_txn);
                         ("policy", Json.String l.fl_policy);
                         ("role", Json.String l.fl_role);
                         ("op", Json.Int l.fl_op);
                         ("op_label", Json.String l.fl_op_label);
                         ("rule", Json.String l.fl_rule);
                       ])
                   f.fo_log) );
          ])
  | Metrics m ->
      Json.Assoc
        (head "metrics"
        @ [
            ("name", Json.String m.m_name);
            ("seed", Json.Int m.m_seed);
            ("metrics", json_counters m.m_metrics);
          ])
  | Bench b ->
      Json.Assoc
        (head "bench"
        @ [
            ( "records",
              Json.List
                (List.map
                   (fun r ->
                     Json.Assoc
                       [
                         ("experiment", Json.String r.experiment);
                         ("wall_ms", Json.Int r.wall_ms);
                         ("jobs", Json.Int r.b_jobs);
                         ("workers", Json.Int r.b_workers);
                         ("metrics", json_counters r.metrics);
                       ])
                   b.records) );
          ])
  | Fuzz z ->
      Json.Assoc
        (head "fuzz"
        @ [
            ("fs", Json.String z.z_fs);
            ("seq", Json.Int z.z_seq);
            ("seed", Json.Int z.z_seed);
            ("cap", Json.Int z.z_cap);
            ("workloads", Json.Int z.z_workloads);
            ("log_writes", Json.Int z.z_log_writes);
            ("states_raw", Json.Int z.z_states_raw);
            ("states", Json.Int z.z_states);
            ("violations", Json.Int z.z_violations);
            ("tc_detected", Json.Int z.z_tc);
            ("counts", json_counters z.z_kinds);
            ("corpus", Json.String z.z_corpus);
            ( "cases",
              Json.List
                (List.map
                   (fun c ->
                     Json.Assoc
                       [
                         ("index", Json.Int c.z_index);
                         ("workload", Json.String c.z_workload);
                         ("minimized", Json.String c.z_minimized);
                         ("checked", Json.Int c.z_checked);
                         ("violations", Json.Int c.z_violations);
                         ( "first",
                           Json.List
                             (List.map
                                (fun v ->
                                  Json.Assoc
                                    [
                                      ("state", Json.String v.state);
                                      ("kind", Json.String v.v_kind);
                                      ("detail", Json.String v.detail);
                                    ])
                                c.z_first) );
                       ])
                   z.z_cases) );
          ])
  | Traffic t ->
      Json.Assoc
        (head "traffic"
        @ [
            ("fs", Json.String t.t_fs);
            ("clients", Json.Int t.t_clients);
            ("tenants", Json.Int t.t_tenants);
            ("seed", Json.Int t.t_seed);
            ("zipf_milli", Json.Int t.t_zipf_milli);
            ("arrival", Json.String t.t_arrival);
            ("duration_ms", Json.Int t.t_duration_ms);
            ("num_blocks", Json.Int t.t_num_blocks);
            ("ops", Json.Int t.t_ops);
            ("errors", Json.Int t.t_errors);
            ("ops_per_sim_sec", Json.Int t.t_ops_per_sim_sec);
            ("p50_us", Json.Int t.t_p50_us);
            ("p99_us", Json.Int t.t_p99_us);
            ("op_counts", json_counters t.t_op_counts);
            ("chunks_touched", Json.Int t.t_chunks_touched);
            ("blocks_touched", Json.Int t.t_blocks_touched);
            ("states", Json.Int t.t_states);
            ("tc_detected", Json.Int t.t_tc);
            ("violations", Json.Int t.t_viol);
            ("cross_tenant", Json.Int t.t_cross);
            ("mount_violations", Json.Int t.t_mount_viol);
            ( "per_tenant",
              Json.List
                (List.map
                   (fun tt ->
                     Json.Assoc
                       [
                         ("tenant", Json.Int tt.tt_tenant);
                         ("ops", Json.Int tt.tt_ops);
                         ("violations", Json.Int tt.tt_viol);
                         ("cross", Json.Int tt.tt_cross);
                       ])
                   t.t_per_tenant) );
          ])
  | Thresholds th ->
      Json.Assoc
        (head "bench-thresholds"
        @ [
            ( "rules",
              Json.List
                (List.map
                   (fun r ->
                     Json.Assoc
                       (("metric", Json.String r.metric)
                       :: List.concat
                            [
                              (match r.max_value with
                              | Some v -> [ ("max", Json.Int v) ]
                              | None -> []);
                              (match r.min_value with
                              | Some v -> [ ("min", Json.Int v) ]
                              | None -> []);
                              (match r.le_metric with
                              | Some m -> [ ("le_metric", Json.String m) ]
                              | None -> []);
                            ]))
                   th.rules) );
          ])

let to_string t = Json.to_string (json_of t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let str_list j =
  let* l = Json.to_list j in
  map_result Json.to_str l

let counters_of j =
  let* a = Json.to_assoc j in
  map_result
    (fun (k, v) ->
      let* n = Json.to_int v in
      Ok (k, n))
    a

let cell_of j =
  let* row = Json.mem_str "row" j in
  let* col = Json.mem_str "col" j in
  let* applicable =
    let* m = Json.member "applicable" j in
    Json.to_bool m
  in
  let* fired = Json.mem_int "fired" j in
  let* detection =
    let* m = Json.member "detection" j in
    str_list m
  in
  let* recovery =
    let* m = Json.member "recovery" j in
    str_list m
  in
  let* note = Json.mem_str "note" j in
  let* d_sym = Json.mem_str "d" j in
  let* r_sym = Json.mem_str "r" j in
  Ok { row; col; applicable; fired; detection; recovery; note; d_sym; r_sym }

let matrix_of j =
  let* fault = Json.mem_str "fault" j in
  let* rows =
    let* m = Json.member "rows" j in
    str_list m
  in
  let* cols =
    let* m = Json.member "cols" j in
    str_list m
  in
  let* cells =
    let* m = Json.mem_list "cells" j in
    map_result cell_of m
  in
  Ok { fault; rows; cols; cells }

let fingerprint_of j =
  let* fp_fs = Json.mem_str "fs" j in
  let* fp_seed = Json.mem_int "seed" j in
  let* counters =
    let* m = Json.member "counters" j in
    counters_of m
  in
  let* matrices =
    let* m = Json.mem_list "matrices" j in
    map_result matrix_of m
  in
  Ok (Fingerprint { fp_fs; fp_seed; matrices; counters })

let crash_of j =
  let* c_fs = Json.mem_str "fs" j in
  let* c_seed = Json.mem_int "seed" j in
  let* c_max_states = Json.mem_int "max_states" j in
  let* log_len = Json.mem_int "log_len" j in
  let* epochs = Json.mem_int "epochs" j in
  let* states = Json.mem_int "states" j in
  let* tc_detected = Json.mem_int "tc_detected" j in
  let* kind_counts =
    let* m = Json.member "counts" j in
    counters_of m
  in
  let* violations =
    let* m = Json.mem_list "violations" j in
    map_result
      (fun v ->
        let* state = Json.mem_str "state" v in
        let* v_kind = Json.mem_str "kind" v in
        let* detail = Json.mem_str "detail" v in
        Ok { state; v_kind; detail })
      m
  in
  Ok
    (Crash
       {
         c_fs;
         c_seed;
         c_max_states;
         log_len;
         epochs;
         states;
         tc_detected;
         kind_counts;
         violations;
       })

let forensics_of j =
  let* fo_fs = Json.mem_str "fs" j in
  let* fo_seed = Json.mem_int "seed" j in
  let* fo_max_states = Json.mem_int "max_states" j in
  let culprit_of c =
    let* fc_block = Json.mem_int "block" c in
    let* fc_label = Json.mem_str "label" c in
    let* fc_role = Json.mem_str "role" c in
    let* fc_txn = Json.mem_int "txn" c in
    let* fc_policy = Json.mem_str "policy" c in
    let* fc_epoch = Json.mem_int "epoch" c in
    let* fc_op = Json.mem_int "op" c in
    let* fc_op_label = Json.mem_str "op_label" c in
    let* fc_rule = Json.mem_str "rule" c in
    let* fc_first_seq = Json.mem_int "first_seq" c in
    let* fc_dropped = Json.mem_int "dropped" c in
    let* fc_torn =
      let* m = Json.member "torn" c in
      Json.to_bool m
    in
    Ok
      {
        fc_block;
        fc_label;
        fc_role;
        fc_txn;
        fc_policy;
        fc_epoch;
        fc_op;
        fc_op_label;
        fc_rule;
        fc_first_seq;
        fc_dropped;
        fc_torn;
      }
  in
  let* fo_chains =
    let* m = Json.mem_list "chains" j in
    map_result
      (fun ch ->
        let* fh_state = Json.mem_str "state" ch in
        let* fh_kind = Json.mem_str "kind" ch in
        let* fh_detail = Json.mem_str "detail" ch in
        let* fh_probes = Json.mem_int "probes" ch in
        let* fh_summary = Json.mem_str "summary" ch in
        let* fh_culprits =
          let* cs = Json.mem_list "culprits" ch in
          map_result culprit_of cs
        in
        Ok { fh_state; fh_kind; fh_detail; fh_probes; fh_summary; fh_culprits })
      m
  in
  let* fo_log =
    let* m = Json.mem_list "log" j in
    map_result
      (fun l ->
        let* fl_seq = Json.mem_int "seq" l in
        let* fl_block = Json.mem_int "block" l in
        let* fl_epoch = Json.mem_int "epoch" l in
        let* fl_label = Json.mem_str "label" l in
        let* fl_txn = Json.mem_int "txn" l in
        let* fl_policy = Json.mem_str "policy" l in
        let* fl_role = Json.mem_str "role" l in
        let* fl_op = Json.mem_int "op" l in
        let* fl_op_label = Json.mem_str "op_label" l in
        let* fl_rule = Json.mem_str "rule" l in
        Ok
          {
            fl_seq;
            fl_block;
            fl_epoch;
            fl_label;
            fl_txn;
            fl_policy;
            fl_role;
            fl_op;
            fl_op_label;
            fl_rule;
          })
      m
  in
  Ok (Forensics { fo_fs; fo_seed; fo_max_states; fo_chains; fo_log })

let metrics_of j =
  let* m_name = Json.mem_str "name" j in
  let* m_seed = Json.mem_int "seed" j in
  let* m_metrics =
    let* m = Json.member "metrics" j in
    counters_of m
  in
  Ok (Metrics { m_name; m_seed; m_metrics })

let bench_of j =
  let* records =
    let* m = Json.mem_list "records" j in
    map_result
      (fun r ->
        let* experiment = Json.mem_str "experiment" r in
        let* wall_ms = Json.mem_int "wall_ms" r in
        let* b_jobs = Json.mem_int "jobs" r in
        let* b_workers = Json.mem_int "workers" r in
        let* metrics =
          let* m = Json.member "metrics" r in
          counters_of m
        in
        Ok { experiment; wall_ms; b_jobs; b_workers; metrics })
      m
  in
  Ok (Bench { records })

let thresholds_of j =
  let* rules =
    let* m = Json.mem_list "rules" j in
    map_result
      (fun r ->
        let* metric = Json.mem_str "metric" r in
        let opt_int k =
          match Json.member k r with
          | Ok v -> (
              match Json.to_int v with
              | Ok n -> Ok (Some n)
              | Error e -> Error (k ^ ": " ^ e))
          | Error _ -> Ok None
        in
        let* max_value = opt_int "max" in
        let* min_value = opt_int "min" in
        let le_metric =
          match Json.member "le_metric" r with
          | Ok (Json.String s) -> Some s
          | Ok _ | Error _ -> None
        in
        if max_value = None && min_value = None && le_metric = None then
          Error
            (Printf.sprintf
               "rule for %S has no bound (need max, min or le_metric)" metric)
        else Ok { metric; max_value; min_value; le_metric })
      m
  in
  Ok (Thresholds { rules })

let fuzz_of j =
  let* z_fs = Json.mem_str "fs" j in
  let* z_seq = Json.mem_int "seq" j in
  let* z_seed = Json.mem_int "seed" j in
  let* z_cap = Json.mem_int "cap" j in
  let* z_workloads = Json.mem_int "workloads" j in
  let* z_log_writes = Json.mem_int "log_writes" j in
  let* z_states_raw = Json.mem_int "states_raw" j in
  let* z_states = Json.mem_int "states" j in
  let* z_violations = Json.mem_int "violations" j in
  let* z_tc = Json.mem_int "tc_detected" j in
  let* z_kinds =
    let* m = Json.member "counts" j in
    counters_of m
  in
  let* z_corpus = Json.mem_str "corpus" j in
  let* z_cases =
    let* m = Json.mem_list "cases" j in
    map_result
      (fun c ->
        let* z_index = Json.mem_int "index" c in
        let* z_workload = Json.mem_str "workload" c in
        let* z_minimized = Json.mem_str "minimized" c in
        let* z_checked = Json.mem_int "checked" c in
        let* z_violations = Json.mem_int "violations" c in
        let* z_first =
          let* vs = Json.mem_list "first" c in
          map_result
            (fun v ->
              let* state = Json.mem_str "state" v in
              let* v_kind = Json.mem_str "kind" v in
              let* detail = Json.mem_str "detail" v in
              Ok { state; v_kind; detail })
            vs
        in
        Ok { z_index; z_workload; z_minimized; z_checked; z_violations; z_first })
      m
  in
  Ok
    (Fuzz
       {
         z_fs;
         z_seq;
         z_seed;
         z_cap;
         z_workloads;
         z_log_writes;
         z_states_raw;
         z_states;
         z_violations;
         z_tc;
         z_kinds;
         z_corpus;
         z_cases;
       })

let traffic_of j =
  let* t_fs = Json.mem_str "fs" j in
  let* t_clients = Json.mem_int "clients" j in
  let* t_tenants = Json.mem_int "tenants" j in
  let* t_seed = Json.mem_int "seed" j in
  let* t_zipf_milli = Json.mem_int "zipf_milli" j in
  let* t_arrival = Json.mem_str "arrival" j in
  let* t_duration_ms = Json.mem_int "duration_ms" j in
  let* t_num_blocks = Json.mem_int "num_blocks" j in
  let* t_ops = Json.mem_int "ops" j in
  let* t_errors = Json.mem_int "errors" j in
  let* t_ops_per_sim_sec = Json.mem_int "ops_per_sim_sec" j in
  let* t_p50_us = Json.mem_int "p50_us" j in
  let* t_p99_us = Json.mem_int "p99_us" j in
  let* t_op_counts =
    let* m = Json.member "op_counts" j in
    counters_of m
  in
  let* t_chunks_touched = Json.mem_int "chunks_touched" j in
  let* t_blocks_touched = Json.mem_int "blocks_touched" j in
  let* t_states = Json.mem_int "states" j in
  let* t_tc = Json.mem_int "tc_detected" j in
  let* t_viol = Json.mem_int "violations" j in
  let* t_cross = Json.mem_int "cross_tenant" j in
  let* t_mount_viol = Json.mem_int "mount_violations" j in
  let* t_per_tenant =
    let* m = Json.mem_list "per_tenant" j in
    map_result
      (fun tt ->
        let* tt_tenant = Json.mem_int "tenant" tt in
        let* tt_ops = Json.mem_int "ops" tt in
        let* tt_viol = Json.mem_int "violations" tt in
        let* tt_cross = Json.mem_int "cross" tt in
        Ok { tt_tenant; tt_ops; tt_viol; tt_cross })
      m
  in
  Ok
    (Traffic
       {
         t_fs;
         t_clients;
         t_tenants;
         t_seed;
         t_zipf_milli;
         t_arrival;
         t_duration_ms;
         t_num_blocks;
         t_ops;
         t_errors;
         t_ops_per_sim_sec;
         t_p50_us;
         t_p99_us;
         t_op_counts;
         t_chunks_touched;
         t_blocks_touched;
         t_states;
         t_tc;
         t_viol;
         t_cross;
         t_mount_viol;
         t_per_tenant;
       })

let of_string s =
  let* j = Json.of_string s in
  let* version = Json.mem_int "schema_version" j in
  if version <> schema_version then
    Error
      (Printf.sprintf "unknown schema version %d (this build supports %d)"
         version schema_version)
  else
    let* kind = Json.mem_str "kind" j in
    match kind with
    | "fingerprint" -> fingerprint_of j
    | "crash" -> crash_of j
    | "forensics" -> forensics_of j
    | "metrics" -> metrics_of j
    | "bench" -> bench_of j
    | "bench-thresholds" -> thresholds_of j
    | "fuzz" -> fuzz_of j
    | "traffic" -> traffic_of j
    | k -> Error (Printf.sprintf "unknown artifact kind %S" k)

let save path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

type item = { path : string; golden : string; fresh : string }

let default_timing_tol = 0.5

let is_exact_metric name =
  let suffix s = String.length name >= String.length s
    && String.sub name (String.length name - String.length s) (String.length s) = s
  in
  suffix ".states" || suffix ".violations" || suffix ".tc_detected"
  || suffix ".chains" || suffix ".culprits" || suffix ".probes"
  || suffix ".workloads" || suffix ".log_writes"
  (* traffic metrics are simulated-time, hence deterministic *)
  || suffix ".ops" || suffix ".ops_per_sim_sec" || suffix ".p50_us"
  || suffix ".p99_us" || suffix ".cross_tenant" || suffix ".blocks_touched"
  || suffix ".chunks_touched"
  || name = "jobs"

let item path golden fresh = { path; golden; fresh }

(* Exact comparison of (string * int) counter sets, keyed by union. *)
let diff_counters prefix golden fresh =
  let keys =
    List.sort_uniq compare (List.map fst golden @ List.map fst fresh)
  in
  List.filter_map
    (fun k ->
      let g = List.assoc_opt k golden and f = List.assoc_opt k fresh in
      if g = f then None
      else
        let show = function Some n -> string_of_int n | None -> "(absent)" in
        Some (item (prefix ^ "/" ^ k) (show g) (show f)))
    keys

let show_cell (c : fp_cell) =
  if not c.applicable then "not applicable"
  else
    Printf.sprintf "d=%S r=%S fired=%d detection=[%s] recovery=[%s] note=%S"
      c.d_sym c.r_sym c.fired
      (String.concat "," c.detection)
      (String.concat "," c.recovery)
      c.note

let na_cell row col =
  {
    row;
    col;
    applicable = false;
    fired = 0;
    detection = [];
    recovery = [];
    note = "";
    d_sym = ".";
    r_sym = ".";
  }

let diff_fingerprint g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let pre = "fingerprint/" ^ g.fp_fs in
  if g.fp_fs <> f.fp_fs then push (item (pre ^ "/fs") g.fp_fs f.fp_fs);
  if g.fp_seed <> f.fp_seed then
    push
      (item (pre ^ "/seed") (string_of_int g.fp_seed) (string_of_int f.fp_seed));
  List.iter push (diff_counters (pre ^ "/counters") g.counters f.counters);
  let faults =
    List.sort_uniq compare
      (List.map (fun m -> m.fault) g.matrices
      @ List.map (fun m -> m.fault) f.matrices)
  in
  List.iter
    (fun fault ->
      let find ms = List.find_opt (fun m -> m.fault = fault) ms in
      match (find g.matrices, find f.matrices) with
      | None, None -> ()
      | Some _, None -> push (item (pre ^ "/" ^ fault) "matrix present" "matrix absent")
      | None, Some _ -> push (item (pre ^ "/" ^ fault) "matrix absent" "matrix present")
      | Some gm, Some fm ->
          let mpre = pre ^ "/" ^ fault in
          if gm.rows <> fm.rows then
            push
              (item (mpre ^ "/rows")
                 (String.concat "," gm.rows)
                 (String.concat "," fm.rows));
          if gm.cols <> fm.cols then
            push
              (item (mpre ^ "/cols")
                 (String.concat "," gm.cols)
                 (String.concat "," fm.cols));
          (* Cells keyed by (row, col); a missing key is the
             not-applicable cell. Iterate the union in row-major golden
             order, then any fresh-only keys. *)
          let key c = (c.row, c.col) in
          let keys =
            List.map key gm.cells
            @ List.filter
                (fun k -> not (List.exists (fun c -> key c = k) gm.cells))
                (List.map key fm.cells)
          in
          List.iter
            (fun (row, col) ->
              let find cells =
                match
                  List.find_opt (fun c -> c.row = row && c.col = col) cells
                with
                | Some c -> c
                | None -> na_cell row col
              in
              let gc = find gm.cells and fc = find fm.cells in
              if gc <> fc then
                push
                  (item
                     (Printf.sprintf "%s/%s:%s" mpre row col)
                     (show_cell gc) (show_cell fc)))
            keys)
    faults;
  List.rev !items

let diff_crash g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let pre = "crash/" ^ g.c_fs in
  let scalar name gv fv =
    if gv <> fv then push (item (pre ^ "/" ^ name) (string_of_int gv) (string_of_int fv))
  in
  if g.c_fs <> f.c_fs then push (item (pre ^ "/fs") g.c_fs f.c_fs);
  scalar "seed" g.c_seed f.c_seed;
  scalar "max_states" g.c_max_states f.c_max_states;
  scalar "log_len" g.log_len f.log_len;
  scalar "epochs" g.epochs f.epochs;
  scalar "states" g.states f.states;
  scalar "tc_detected" g.tc_detected f.tc_detected;
  List.iter push (diff_counters (pre ^ "/counts") g.kind_counts f.kind_counts);
  let gn = List.length g.violations and fn = List.length f.violations in
  if gn <> fn then
    push
      (item (pre ^ "/violations") (Printf.sprintf "%d violations" gn)
         (Printf.sprintf "%d violations" fn));
  (* Element-wise over the common prefix (exploration order is
     deterministic); cap the noise at the first 20 mismatches. *)
  let shown = ref 0 in
  List.iteri
    (fun i gv ->
      match List.nth_opt f.violations i with
      | Some fv when gv <> fv && !shown < 20 ->
          incr shown;
          let show (v : crash_violation) =
            Printf.sprintf "[%s] %s: %s" v.v_kind v.state v.detail
          in
          push (item (Printf.sprintf "%s/violations[%d]" pre i) (show gv) (show fv))
      | _ -> ())
    g.violations;
  List.rev !items

let show_culprit c =
  Printf.sprintf
    "blk %d (%s) %s x%d from w%d epoch %d txn %d [%s] role %s op %d (%s) rule %S"
    c.fc_block c.fc_label
    (if c.fc_torn then "torn" else "dropped")
    c.fc_dropped c.fc_first_seq c.fc_epoch c.fc_txn c.fc_policy c.fc_role
    c.fc_op c.fc_op_label c.fc_rule

let show_logged l =
  Printf.sprintf "w%d blk %d (%s) epoch %d txn %d [%s] role %s op %d (%s) rule %S"
    l.fl_seq l.fl_block l.fl_label l.fl_epoch l.fl_txn l.fl_policy l.fl_role
    l.fl_op l.fl_op_label l.fl_rule

(* Forensics artifacts are deterministic by explore's contract: exact
   comparison, element-wise, noise-capped like crash violations. *)
let diff_forensics g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let pre = "forensics/" ^ g.fo_fs in
  let scalar name gv fv =
    if gv <> fv then
      push (item (pre ^ "/" ^ name) (string_of_int gv) (string_of_int fv))
  in
  if g.fo_fs <> f.fo_fs then push (item (pre ^ "/fs") g.fo_fs f.fo_fs);
  scalar "seed" g.fo_seed f.fo_seed;
  scalar "max_states" g.fo_max_states f.fo_max_states;
  let gn = List.length g.fo_chains and fn = List.length f.fo_chains in
  if gn <> fn then
    push
      (item (pre ^ "/chains")
         (Printf.sprintf "%d chains" gn)
         (Printf.sprintf "%d chains" fn));
  let shown = ref 0 in
  List.iteri
    (fun i gc ->
      match List.nth_opt f.fo_chains i with
      | Some fc when gc <> fc && !shown < 20 ->
          incr shown;
          let cpre = Printf.sprintf "%s/chains[%d]" pre i in
          if (gc.fh_state, gc.fh_kind, gc.fh_detail) <> (fc.fh_state, fc.fh_kind, fc.fh_detail)
          then
            push
              (item (cpre ^ "/violation")
                 (Printf.sprintf "[%s] %s: %s" gc.fh_kind gc.fh_state gc.fh_detail)
                 (Printf.sprintf "[%s] %s: %s" fc.fh_kind fc.fh_state fc.fh_detail));
          if gc.fh_probes <> fc.fh_probes then
            push
              (item (cpre ^ "/probes")
                 (string_of_int gc.fh_probes)
                 (string_of_int fc.fh_probes));
          if gc.fh_summary <> fc.fh_summary then
            push (item (cpre ^ "/summary") gc.fh_summary fc.fh_summary);
          if gc.fh_culprits <> fc.fh_culprits then
            push
              (item (cpre ^ "/culprits")
                 (String.concat "; " (List.map show_culprit gc.fh_culprits))
                 (String.concat "; " (List.map show_culprit fc.fh_culprits)))
      | _ -> ())
    g.fo_chains;
  let gl = List.length g.fo_log and fl = List.length f.fo_log in
  if gl <> fl then
    push
      (item (pre ^ "/log")
         (Printf.sprintf "%d writes" gl)
         (Printf.sprintf "%d writes" fl));
  let shown = ref 0 in
  List.iteri
    (fun i gw ->
      match List.nth_opt f.fo_log i with
      | Some fw when gw <> fw && !shown < 20 ->
          incr shown;
          push
            (item
               (Printf.sprintf "%s/log[%d]" pre i)
               (show_logged gw) (show_logged fw))
      | _ -> ())
    g.fo_log;
  List.rev !items

let diff_metrics g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let pre = "metrics/" ^ g.m_name in
  if g.m_name <> f.m_name then push (item (pre ^ "/name") g.m_name f.m_name);
  if g.m_seed <> f.m_seed then
    push
      (item (pre ^ "/seed") (string_of_int g.m_seed) (string_of_int f.m_seed));
  List.rev !items @ diff_counters pre g.m_metrics f.m_metrics

let within_tol tol golden fresh =
  let g = float_of_int golden and f = float_of_int fresh in
  Float.abs (f -. g) <= tol *. Float.max (Float.abs g) 1.0

let diff_bench ~timing_tol g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let gn = List.length g.records and fn = List.length f.records in
  if gn <> fn then
    push
      (item "bench/records"
         (Printf.sprintf "%d records" gn)
         (Printf.sprintf "%d records" fn));
  List.iteri
    (fun i gr ->
      match List.nth_opt f.records i with
      | None -> ()
      | Some fr ->
          let pre = Printf.sprintf "bench/%s[%d]" gr.experiment i in
          if gr.experiment <> fr.experiment then
            push (item (pre ^ "/experiment") gr.experiment fr.experiment)
          else begin
            (* wall-clock and workers: tolerance / informational *)
            if not (within_tol timing_tol gr.wall_ms fr.wall_ms) then
              push
                (item (pre ^ "/wall_ms")
                   (string_of_int gr.wall_ms)
                   (Printf.sprintf "%d (tol ±%.0f%%)" fr.wall_ms
                      (100. *. timing_tol)));
            if gr.b_jobs <> fr.b_jobs then
              push
                (item (pre ^ "/jobs")
                   (string_of_int gr.b_jobs)
                   (string_of_int fr.b_jobs));
            let keys =
              List.sort_uniq compare
                (List.map fst gr.metrics @ List.map fst fr.metrics)
            in
            List.iter
              (fun k ->
                match
                  (List.assoc_opt k gr.metrics, List.assoc_opt k fr.metrics)
                with
                | None, None -> ()
                | Some v, None ->
                    push (item (pre ^ "/" ^ k) (string_of_int v) "(absent)")
                | None, Some v ->
                    push (item (pre ^ "/" ^ k) "(absent)" (string_of_int v))
                | Some gv, Some fv ->
                    if is_exact_metric k then begin
                      if gv <> fv then
                        push
                          (item (pre ^ "/" ^ k) (string_of_int gv)
                             (string_of_int fv))
                    end
                    else if not (within_tol timing_tol gv fv) then
                      push
                        (item (pre ^ "/" ^ k) (string_of_int gv)
                           (Printf.sprintf "%d (tol ±%.0f%%)" fv
                              (100. *. timing_tol))))
              keys
          end)
    g.records;
  List.rev !items

let check_thresholds th b =
  (* Union of all records' metrics, later records winning. *)
  let merged =
    List.fold_left
      (fun acc r ->
        List.fold_left (fun acc (k, v) -> (k, v) :: acc) acc r.metrics)
      [] b.records
  in
  let lookup k = List.assoc_opt k merged in
  List.concat_map
    (fun r ->
      let pre = "thresholds/" ^ r.metric in
      match lookup r.metric with
      | None -> [ item pre "metric measured" "metric absent from bench run" ]
      | Some v ->
          List.concat
            [
              (match r.max_value with
              | Some max when v > max ->
                  [ item pre (Printf.sprintf "<= %d" max) (string_of_int v) ]
              | _ -> []);
              (match r.min_value with
              | Some min when v < min ->
                  [ item pre (Printf.sprintf ">= %d" min) (string_of_int v) ]
              | _ -> []);
              (match r.le_metric with
              | Some other -> (
                  match lookup other with
                  | None ->
                      [
                        item pre
                          (Printf.sprintf "<= %s" other)
                          (other ^ " absent from bench run");
                      ]
                  | Some ov when v > ov ->
                      [
                        item pre
                          (Printf.sprintf "<= %s = %d" other ov)
                          (string_of_int v);
                      ]
                  | Some _ -> [])
              | None -> []);
            ])
    th.rules

(* Fuzz campaigns are deterministic by construction: exact, cell-level
   comparison, case lists keyed element-wise like crash violations. *)
let diff_fuzz g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let pre = "fuzz/" ^ g.z_fs in
  let scalar name gv fv =
    if gv <> fv then
      push (item (pre ^ "/" ^ name) (string_of_int gv) (string_of_int fv))
  in
  if g.z_fs <> f.z_fs then push (item (pre ^ "/fs") g.z_fs f.z_fs);
  scalar "seq" g.z_seq f.z_seq;
  scalar "seed" g.z_seed f.z_seed;
  scalar "cap" g.z_cap f.z_cap;
  scalar "workloads" g.z_workloads f.z_workloads;
  scalar "log_writes" g.z_log_writes f.z_log_writes;
  scalar "states_raw" g.z_states_raw f.z_states_raw;
  scalar "states" g.z_states f.z_states;
  scalar "violations" g.z_violations f.z_violations;
  scalar "tc_detected" g.z_tc f.z_tc;
  List.iter push (diff_counters (pre ^ "/counts") g.z_kinds f.z_kinds);
  if g.z_corpus <> f.z_corpus then
    push (item (pre ^ "/corpus") g.z_corpus f.z_corpus);
  let gn = List.length g.z_cases and fn = List.length f.z_cases in
  if gn <> fn then
    push
      (item (pre ^ "/cases")
         (Printf.sprintf "%d cases" gn)
         (Printf.sprintf "%d cases" fn));
  let shown = ref 0 in
  List.iteri
    (fun i gc ->
      match List.nth_opt f.z_cases i with
      | Some fc when gc <> fc && !shown < 20 ->
          incr shown;
          let show c =
            Printf.sprintf "[w%04d] %s (min: %s) %d violations in %d states%s"
              c.z_index c.z_workload c.z_minimized c.z_violations c.z_checked
              (String.concat ""
                 (List.map
                    (fun v ->
                      Printf.sprintf "; [%s] %s: %s" v.v_kind v.state v.detail)
                    c.z_first))
          in
          push (item (Printf.sprintf "%s/cases[%d]" pre i) (show gc) (show fc))
      | _ -> ())
    g.z_cases;
  List.rev !items

(* Traffic reports are simulated-time end to end: exact, cell-level
   comparison including per-tenant rows. *)
let diff_traffic g f =
  let items = ref [] in
  let push i = items := i :: !items in
  let pre = "traffic/" ^ g.t_fs in
  let scalar name gv fv =
    if gv <> fv then
      push (item (pre ^ "/" ^ name) (string_of_int gv) (string_of_int fv))
  in
  if g.t_fs <> f.t_fs then push (item (pre ^ "/fs") g.t_fs f.t_fs);
  scalar "clients" g.t_clients f.t_clients;
  scalar "tenants" g.t_tenants f.t_tenants;
  scalar "seed" g.t_seed f.t_seed;
  scalar "zipf_milli" g.t_zipf_milli f.t_zipf_milli;
  if g.t_arrival <> f.t_arrival then
    push (item (pre ^ "/arrival") g.t_arrival f.t_arrival);
  scalar "duration_ms" g.t_duration_ms f.t_duration_ms;
  scalar "num_blocks" g.t_num_blocks f.t_num_blocks;
  scalar "ops" g.t_ops f.t_ops;
  scalar "errors" g.t_errors f.t_errors;
  scalar "ops_per_sim_sec" g.t_ops_per_sim_sec f.t_ops_per_sim_sec;
  scalar "p50_us" g.t_p50_us f.t_p50_us;
  scalar "p99_us" g.t_p99_us f.t_p99_us;
  List.iter push (diff_counters (pre ^ "/op_counts") g.t_op_counts f.t_op_counts);
  scalar "chunks_touched" g.t_chunks_touched f.t_chunks_touched;
  scalar "blocks_touched" g.t_blocks_touched f.t_blocks_touched;
  scalar "states" g.t_states f.t_states;
  scalar "tc_detected" g.t_tc f.t_tc;
  scalar "violations" g.t_viol f.t_viol;
  scalar "cross_tenant" g.t_cross f.t_cross;
  scalar "mount_violations" g.t_mount_viol f.t_mount_viol;
  let gn = List.length g.t_per_tenant and fn = List.length f.t_per_tenant in
  if gn <> fn then
    push
      (item (pre ^ "/per_tenant")
         (Printf.sprintf "%d tenants" gn)
         (Printf.sprintf "%d tenants" fn));
  List.iteri
    (fun i gt ->
      match List.nth_opt f.t_per_tenant i with
      | Some ft when gt <> ft ->
          let show tt =
            Printf.sprintf "t%d: ops %d, violations %d (cross %d)" tt.tt_tenant
              tt.tt_ops tt.tt_viol tt.tt_cross
          in
          push (item (Printf.sprintf "%s/per_tenant[%d]" pre i) (show gt) (show ft))
      | _ -> ())
    g.t_per_tenant;
  List.rev !items

let diff ?(timing_tol = default_timing_tol) golden fresh =
  match (golden, fresh) with
  | Fingerprint g, Fingerprint f -> Ok (diff_fingerprint g f)
  | Crash g, Crash f -> Ok (diff_crash g f)
  | Forensics g, Forensics f -> Ok (diff_forensics g f)
  | Metrics g, Metrics f -> Ok (diff_metrics g f)
  | Bench g, Bench f -> Ok (diff_bench ~timing_tol g f)
  | Fuzz g, Fuzz f -> Ok (diff_fuzz g f)
  | Traffic g, Traffic f -> Ok (diff_traffic g f)
  | Thresholds th, Bench b -> Ok (check_thresholds th b)
  | g, f ->
      Error
        (Printf.sprintf "cannot diff a %s artifact against a %s artifact"
           (kind_name g) (kind_name f))

let pp_item fmt i =
  Format.fprintf fmt "%s@.  golden: %s@.  fresh:  %s" i.path i.golden i.fresh

let pp_items fmt items =
  List.iteri
    (fun i it ->
      if i > 0 then Format.fprintf fmt "@.";
      Format.fprintf fmt "%a@." pp_item it)
    items
