(* Tests for the golden-artifact subsystem (Iron_report).

   The regression gate is only as trustworthy as its codec and differ,
   so each is pinned from both sides:

   - encode/decode round-trips any artifact (qcheck over generated
     artifacts, including hostile strings), and encoding is canonical
     (equal artifacts are byte-equal on disk);
   - the loader rejects unknown schema versions and unknown kinds
     loudly;
   - the differ is exact on policy matrices and crash counts, and
     tolerance-based on timing metrics;
   - the codec and differ derived from the field lists agree with the
     hand-written module they replaced (report_ref.ml) on every
     committed artifact, on seeded mutants of each and on generated
     artifacts;
   - end to end: a real ext3 campaign's artifact survives a
     round-trip unchanged, and flipping a single policy cell makes the
     diff fail and name that cell. *)

module Report = Iron_report.Report
module Json = Iron_report.Json
module Driver = Iron_core.Driver

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Tiny string helpers so the tests need no extra libraries. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then s
    else if String.sub s i m = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Json unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_escapes () =
  let nasty = "a\"b\\c\nd\te\r\011\001 end" in
  let v = Json.Assoc [ ("k", Json.String nasty) ] in
  (match Json.of_string (Json.to_string v) with
  | Ok (Json.Assoc [ ("k", Json.String s) ]) ->
      check Alcotest.string "string round-trips through escapes" nasty s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e);
  (* \u escapes decode to UTF-8 (including a surrogate pair). *)
  match Json.of_string "\"A\\u00e9\\u2713\\ud83d\\ude00\"" with
  | Ok (Json.String s) ->
      check Alcotest.string "unicode escapes"
        "A\xc3\xa9\xe2\x9c\x93\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.fail e

let test_json_rejects_garbage () =
  let bad =
    [
      "{";
      "[1,]";
      "{\"a\":}";
      "nul";
      "1 2";
      "\"unterminated";
      (* a high surrogate must be followed by a low one *)
      "\"\\uDBFF\\u0000\"";
      "\"\\ud83d\\ud83d\"";
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let test_json_int_vs_float () =
  (match Json.of_string "42" with
  | Ok (Json.Int 42) -> ()
  | _ -> Alcotest.fail "42 should parse as Int");
  match Json.of_string "42.5" with
  | Ok (Json.Float f) -> check (Alcotest.float 1e-9) "float" 42.5 f
  | _ -> Alcotest.fail "42.5 should parse as Float"

(* ------------------------------------------------------------------ *)
(* Artifact generators                                                 *)
(* ------------------------------------------------------------------ *)

(* Strings that exercise the codec: printable stuff plus quotes,
   backslashes, newlines and control bytes. *)
let gen_string =
  QCheck.Gen.(
    map
      (fun chars ->
        String.concat ""
          (List.map
             (function
               | 0 -> "\""
               | 1 -> "\\"
               | 2 -> "\n"
               | 3 -> "\t"
               | 4 -> "\001"
               | n -> String.make 1 (Char.chr (32 + (n mod 90))))
             chars))
      (small_list (int_bound 120)))

let gen_counters =
  QCheck.Gen.(
    small_list (pair gen_string (int_bound 100000))
    |> map (fun kvs ->
           (* duplicate keys would not round-trip through an assoc *)
           List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs))

let gen_cell =
  QCheck.Gen.(
    map
      (fun ((row, col, fired), (detection, recovery, note)) ->
        {
          Report.row;
          col;
          applicable = true;
          fired;
          detection;
          recovery;
          note;
          d_sym = "-";
          r_sym = "|";
        })
      (pair
         (triple gen_string gen_string (int_bound 50))
         (triple (small_list gen_string) (small_list gen_string) gen_string)))

let gen_fingerprint =
  QCheck.Gen.(
    map
      (fun ((fs, seed, counters), (faults, cells)) ->
        Report.Fingerprint
          {
            Report.fp_fs = fs;
            fp_seed = seed;
            counters;
            matrices =
              List.map
                (fun fault ->
                  { Report.fault; rows = [ "r" ]; cols = [ "a" ]; cells })
                (List.sort_uniq compare faults);
          })
      (pair
         (triple gen_string (int_bound 1000000) gen_counters)
         (pair (small_list gen_string) (small_list gen_cell))))

let gen_crash =
  QCheck.Gen.(
    map
      (fun ((fs, seed, states), (counts, violations)) ->
        Report.Crash
          {
            Report.c_fs = fs;
            c_seed = seed;
            c_max_states = states;
            log_len = states mod 97;
            epochs = states mod 11;
            states;
            tc_detected = states mod 301;
            kind_counts = counts;
            violations =
              List.map
                (fun (s, k, d) -> { Report.state = s; v_kind = k; detail = d })
                violations;
          })
      (pair
         (triple gen_string (int_bound 1000000) (int_bound 5000))
         (pair gen_counters (small_list (triple gen_string gen_string gen_string)))))

let gen_bench =
  QCheck.Gen.(
    map
      (fun records ->
        Report.Bench
          {
            Report.records =
              List.map
                (fun ((e, w), (j, k, m)) ->
                  {
                    Report.experiment = e;
                    wall_ms = w;
                    b_jobs = j;
                    b_workers = k;
                    metrics = m;
                  })
                records;
          })
      (small_list
         (pair (pair gen_string (int_bound 100000))
            (triple (int_bound 10000) (int_range 1 16) gen_counters))))

let gen_thresholds =
  QCheck.Gen.(
    map
      (fun rules ->
        Report.Thresholds
          {
            Report.rules =
              List.map
                (fun (m, which, v) ->
                  match which mod 3 with
                  | 0 ->
                      {
                        Report.metric = m;
                        max_value = Some v;
                        min_value = None;
                        le_metric = None;
                      }
                  | 1 ->
                      {
                        Report.metric = m;
                        max_value = None;
                        min_value = Some v;
                        le_metric = None;
                      }
                  | _ ->
                      {
                        Report.metric = m;
                        max_value = None;
                        min_value = None;
                        le_metric = Some (m ^ ".other");
                      })
                rules;
          })
      (small_list (triple gen_string (int_bound 5) (int_bound 1000))))

let gen_forensics =
  QCheck.Gen.(
    map
      (fun ((fs, seed, states), (chains, log)) ->
        Report.Forensics
          {
            Report.fo_fs = fs;
            fo_seed = seed;
            fo_max_states = states;
            fo_chains =
              List.map
                (fun ((st, k, d), (probes, summary, culprits)) ->
                  {
                    Report.fh_state = st;
                    fh_kind = k;
                    fh_detail = d;
                    fh_probes = probes;
                    fh_summary = summary;
                    fh_culprits =
                      List.map
                        (fun ((b, lbl, role), (txn, pol, n)) ->
                          {
                            Report.fc_block = b;
                            fc_label = lbl;
                            fc_role = role;
                            fc_txn = txn;
                            fc_policy = pol;
                            fc_epoch = n mod 7;
                            fc_op = (n mod 13) - 1;
                            fc_op_label = lbl;
                            fc_rule = (if n mod 2 = 0 then "" else pol);
                            fc_first_seq = n;
                            fc_dropped = 1 + (n mod 4);
                            fc_torn = n mod 3 = 0;
                          })
                        culprits;
                  })
                chains;
            fo_log =
              List.mapi
                (fun i ((lbl, role), (blk, txn)) ->
                  {
                    Report.fl_seq = i;
                    fl_block = blk;
                    fl_epoch = i mod 5;
                    fl_label = lbl;
                    fl_txn = txn;
                    fl_policy = (if txn >= 0 then "ordered" else "");
                    fl_role = role;
                    fl_op = i mod 9;
                    fl_op_label = lbl;
                    fl_rule = "";
                  })
                log;
          })
      (pair
         (triple gen_string (int_bound 1000000) (int_bound 5000))
         (pair
            (small_list
               (pair (triple gen_string gen_string gen_string)
                  (triple (int_bound 512) gen_string
                     (small_list
                        (pair
                           (triple (int_bound 2048) gen_string gen_string)
                           (triple (int_range (-1) 50) gen_string
                              (int_bound 100)))))))
            (small_list
               (pair (pair gen_string gen_string)
                  (pair (int_bound 2048) (int_range (-1) 40)))))))

let gen_metrics =
  QCheck.Gen.(
    map
      (fun ((name, seed), metrics) ->
        Report.Metrics
          { Report.m_name = name; m_seed = seed; m_metrics = metrics })
      (pair (pair gen_string (int_bound 1000000)) gen_counters))

let gen_fuzz =
  QCheck.Gen.(
    map
      (fun ((fs, seed, corpus), ((seq, cap, n), (kinds, cases))) ->
        Report.Fuzz
          {
            Report.z_fs = fs;
            z_seq = 1 + (seq mod 3);
            z_seed = seed;
            z_cap = 1 + cap;
            z_workloads = n;
            z_log_writes = 2 * n;
            z_states_raw = 3 * n;
            z_states = n;
            z_violations = List.length cases;
            z_tc = n mod 7;
            z_kinds = kinds;
            z_corpus = corpus;
            z_cases =
              List.mapi
                (fun i ((w, m), (c, firsts)) ->
                  {
                    Report.z_index = i;
                    z_workload = w;
                    z_minimized = m;
                    z_checked = c;
                    z_violations = List.length firsts;
                    z_first =
                      List.map
                        (fun (st, (k, d)) ->
                          { Report.state = st; v_kind = k; detail = d })
                        firsts;
                  })
                cases;
          })
      (pair
         (triple gen_string (int_bound 1000000) gen_string)
         (pair
            (triple (int_bound 2) (int_bound 500) (int_bound 2000))
            (pair gen_counters
               (small_list
                  (pair (pair gen_string gen_string)
                     (pair (int_bound 300)
                        (small_list
                           (pair gen_string (pair gen_string gen_string))))))))))

let gen_traffic =
  QCheck.Gen.(
    map
      (fun ((fs, arrival, seed), ((clients, ops, p50), (op_counts, tenants))) ->
        Report.Traffic
          {
            Report.t_fs = fs;
            t_clients = clients;
            t_tenants = List.length tenants;
            t_seed = seed;
            t_zipf_milli = seed mod 2000;
            t_arrival = arrival;
            t_duration_ms = 1 + (ops mod 9000);
            t_num_blocks = 4096 * (1 + (clients mod 4));
            t_ops = ops;
            t_errors = ops mod 7;
            t_ops_per_sim_sec = 2 * ops;
            t_p50_us = p50;
            t_p99_us = 3 * p50;
            t_op_counts = op_counts;
            t_chunks_touched = ops mod 97;
            t_blocks_touched = ops mod 4099;
            t_states = ops mod 500;
            t_tc = ops mod 13;
            t_viol = List.fold_left (fun acc (_, v, _) -> acc + v) 0 tenants;
            t_cross =
              List.fold_left (fun acc (_, v, c) -> acc + min v c) 0 tenants;
            t_mount_viol = ops mod 3;
            t_per_tenant =
              List.mapi
                (fun i (o, v, c) ->
                  {
                    Report.tt_tenant = i;
                    tt_ops = o;
                    tt_viol = v;
                    tt_cross = min v c;
                  })
                tenants;
          })
      (pair
         (triple gen_string gen_string (int_bound 1000000))
         (pair
            (triple (int_range 1 1000) (int_bound 100000) (int_bound 50000))
            (pair gen_counters
               (small_list
                  (triple (int_bound 5000) (int_bound 40) (int_bound 40)))))))

let gen_artifact =
  QCheck.Gen.(
    int_bound 7 >>= function
    | 0 -> gen_fingerprint
    | 1 -> gen_crash
    | 2 -> gen_bench
    | 3 -> gen_forensics
    | 4 -> gen_metrics
    | 5 -> gen_fuzz
    | 6 -> gen_traffic
    | _ -> gen_thresholds)

let arb_artifact =
  QCheck.make ~print:(fun a -> Report.to_string a) gen_artifact

(* ------------------------------------------------------------------ *)
(* Round-trip + canonicality                                           *)
(* ------------------------------------------------------------------ *)

let prop_round_trip =
  QCheck.Test.make ~name:"Report encode/decode round-trips" ~count:200
    arb_artifact (fun art ->
      match Report.of_string (Report.to_string art) with
      | Ok art' -> art' = art
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_canonical =
  QCheck.Test.make ~name:"Report encoding is canonical (stable bytes)"
    ~count:100 arb_artifact (fun art ->
      let s = Report.to_string art in
      match Report.of_string s with
      | Ok art' -> String.equal s (Report.to_string art')
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Loader rejection                                                    *)
(* ------------------------------------------------------------------ *)

let sample_crash =
  Report.Crash
    {
      Report.c_fs = "ext3";
      c_seed = 7;
      c_max_states = 10;
      log_len = 3;
      epochs = 1;
      states = 10;
      tc_detected = 0;
      kind_counts = [ ("data-loss", 2) ];
      violations = [ { Report.state = "s"; v_kind = "data-loss"; detail = "d" } ];
    }

let test_rejects_unknown_version () =
  let s = Report.to_string sample_crash in
  let bumped =
    replace_once ~sub:"\"schema_version\": 1" ~by:"\"schema_version\": 99" s
  in
  match Report.of_string bumped with
  | Ok _ -> Alcotest.fail "accepted schema version 99"
  | Error e ->
      check Alcotest.bool "error names the version" true
        (contains ~sub:"unknown schema version 99" e)

let test_rejects_unknown_kind () =
  let s = Report.to_string sample_crash in
  let bumped =
    replace_once ~sub:"\"kind\": \"crash\"" ~by:"\"kind\": \"mystery\"" s
  in
  match Report.of_string bumped with
  | Ok _ -> Alcotest.fail "accepted unknown kind"
  | Error e ->
      check Alcotest.bool "error names the kind" true
        (contains ~sub:"mystery" e)

(* A wrongly typed optional bound is an error, like a wrongly typed
   [max]: a rule must not load with one of its bounds silently gone. *)
let test_rejects_mistyped_le_metric () =
  let doc =
    {|{"schema_version": 1, "kind": "bench-thresholds", "rules": [
        {"metric": "bench.fig2.wall_ms", "max": 89, "le_metric": 7}]}|}
  in
  match Report.of_string doc with
  | Ok _ -> Alcotest.fail "accepted a rule whose le_metric is an int"
  | Error e ->
      check Alcotest.bool "error names the member" true
        (contains ~sub:"le_metric" e)

(* ------------------------------------------------------------------ *)
(* Differ semantics                                                    *)
(* ------------------------------------------------------------------ *)

let cell row col d =
  {
    Report.row;
    col;
    applicable = true;
    fired = 1;
    detection = [ "DErrorCode" ];
    recovery = [ "RPropagate" ];
    note = "EIO";
    d_sym = d;
    r_sym = "-";
  }

let fingerprint cells =
  Report.Fingerprint
    {
      Report.fp_fs = "ext3";
      fp_seed = 7;
      counters = [ ("experiments_run", 2) ];
      matrices =
        [ { Report.fault = "Read Failure"; rows = [ "inode" ]; cols = [ "a"; "b" ]; cells } ];
    }

let diff_ok g f =
  match Report.diff g f with
  | Ok items -> items
  | Error e -> Alcotest.fail e

let test_matrix_diff_exact () =
  let g = fingerprint [ cell "inode" "a" "-"; cell "inode" "b" "-" ] in
  check Alcotest.int "identical matrices diff empty" 0
    (List.length (diff_ok g g));
  (* One flipped policy cell: exactly one item, naming the cell. *)
  let f = fingerprint [ cell "inode" "a" "-"; cell "inode" "b" "|" ] in
  match diff_ok g f with
  | [ item ] ->
      check Alcotest.string "cell named" "fingerprint/ext3/Read Failure/inode:b"
        item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let test_matrix_diff_applicability () =
  (* A cell present on one side only diffs against the not-applicable
     default — losing a cell is drift, not silence. *)
  let g = fingerprint [ cell "inode" "a" "-"; cell "inode" "b" "-" ] in
  let f = fingerprint [ cell "inode" "a" "-" ] in
  match diff_ok g f with
  | [ item ] ->
      check Alcotest.string "fresh side shows not applicable" "not applicable"
        item.Report.fresh
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let test_crash_diff_exact () =
  let g = sample_crash in
  check Alcotest.int "identical crash reports diff empty" 0
    (List.length (diff_ok g g));
  let f =
    match sample_crash with
    | Report.Crash c -> Report.Crash { c with Report.kind_counts = [ ("data-loss", 3) ] }
    | _ -> assert false
  in
  match diff_ok g f with
  | [ item ] ->
      check Alcotest.string "count named" "crash/ext3/counts/data-loss"
        item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let sample_forensics =
  Report.Forensics
    {
      Report.fo_fs = "ext3";
      fo_seed = 7;
      fo_max_states = 10;
      fo_chains =
        [
          {
            Report.fh_state = "all/rand3";
            fh_kind = "data-loss";
            fh_detail = "/durable1: open ENOENT";
            fh_probes = 4;
            fh_summary = "commit record of txn 5 persisted without its payload (epoch 0)";
            fh_culprits =
              [
                {
                  Report.fc_block = 6;
                  fc_label = "j-data";
                  fc_role = "payload";
                  fc_txn = 5;
                  fc_policy = "ordered";
                  fc_epoch = 0;
                  fc_op = 2;
                  fc_op_label = "fsync /racing0";
                  fc_rule = "";
                  fc_first_seq = 5;
                  fc_dropped = 1;
                  fc_torn = false;
                };
              ];
          };
        ];
      fo_log =
        [
          {
            Report.fl_seq = 0;
            fl_block = 144;
            fl_epoch = 0;
            fl_label = "?";
            fl_txn = 5;
            fl_policy = "ordered";
            fl_role = "data";
            fl_op = 1;
            fl_op_label = "write /racing0";
            fl_rule = "";
          };
        ];
    }

let test_forensics_diff_exact () =
  let g = sample_forensics in
  check Alcotest.int "identical forensics reports diff empty" 0
    (List.length (diff_ok g g));
  let mutate f =
    match sample_forensics with
    | Report.Forensics fo ->
        Report.Forensics { fo with Report.fo_chains = List.map f fo.fo_chains }
    | _ -> assert false
  in
  (match
     diff_ok g
       (mutate (fun c -> { c with Report.fh_summary = "something else" }))
   with
  | [ item ] ->
      check Alcotest.string "summary drift named"
        "forensics/ext3/chains[0]/summary" item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items));
  match
    diff_ok g
      (mutate (fun c ->
           {
             c with
             Report.fh_culprits =
               List.map
                 (fun cu -> { cu with Report.fc_txn = 6 })
                 c.Report.fh_culprits;
           }))
  with
  | [ item ] ->
      check Alcotest.string "culprit drift named"
        "forensics/ext3/chains[0]/culprits" item.Report.path;
      check Alcotest.bool "culprit rendering shows the txn" true
        (contains ~sub:"txn 6" item.Report.fresh)
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let test_metrics_diff_exact () =
  let m counters =
    Report.Metrics
      { Report.m_name = "ext3"; m_seed = 7; m_metrics = counters }
  in
  let g = m [ ("disk.read", 100); ("jrnl.commit", 8) ] in
  check Alcotest.int "identical metric sets diff empty" 0
    (List.length (diff_ok g g));
  match diff_ok g (m [ ("disk.read", 100); ("jrnl.commit", 9) ]) with
  | [ item ] ->
      check Alcotest.string "metric drift named (exact, no tolerance)"
        "metrics/ext3/jrnl.commit" item.Report.path
  | items -> Alcotest.failf "expected 1 item, got %d" (List.length items)

let bench metrics =
  Report.Bench
    {
      Report.records =
        [
          {
            Report.experiment = "smoke";
            wall_ms = 100;
            b_jobs = 0;
            b_workers = 1;
            metrics;
          };
        ];
    }

let test_bench_diff_tolerance () =
  (* Timing metrics drift within the tolerance without tripping. *)
  let g = bench [ ("bench.x.us_per_cycle", 100) ] in
  let f = bench [ ("bench.x.us_per_cycle", 140) ] in
  check Alcotest.int "within default ±50%" 0 (List.length (diff_ok g f));
  let f = bench [ ("bench.x.us_per_cycle", 160) ] in
  check Alcotest.int "outside default ±50%" 1 (List.length (diff_ok g f));
  (match Report.diff ~timing_tol:1.0 g f with
  | Ok items -> check Alcotest.int "wider tolerance absorbs it" 0 (List.length items)
  | Error e -> Alcotest.fail e);
  (* Count metrics stay exact regardless of tolerance. *)
  let g = bench [ ("bench.crash_states.ext3.violations", 100) ] in
  let f = bench [ ("bench.crash_states.ext3.violations", 101) ] in
  match Report.diff ~timing_tol:10.0 g f with
  | Ok items -> check Alcotest.int "exact metric trips at ±1" 1 (List.length items)
  | Error e -> Alcotest.fail e

let test_thresholds () =
  let th =
    {
      Report.rules =
        [
          {
            Report.metric = "m.bytes";
            max_value = Some 64;
            min_value = None;
            le_metric = None;
          };
          {
            Report.metric = "m.cow";
            max_value = None;
            min_value = None;
            le_metric = Some "m.flat";
          };
        ];
    }
  in
  let b m = match bench m with Report.Bench b -> b | _ -> assert false in
  check Alcotest.int "all hold" 0
    (List.length
       (Report.check_thresholds th
          (b [ ("m.bytes", 5); ("m.cow", 3); ("m.flat", 700) ])));
  check Alcotest.int "max violated" 1
    (List.length
       (Report.check_thresholds th
          (b [ ("m.bytes", 65); ("m.cow", 3); ("m.flat", 700) ])));
  check Alcotest.int "le_metric violated" 1
    (List.length
       (Report.check_thresholds th
          (b [ ("m.bytes", 5); ("m.cow", 800); ("m.flat", 700) ])));
  (* A metric the run stopped measuring is a violation, not a pass. *)
  check Alcotest.int "missing metric is a violation" 1
    (List.length
       (Report.check_thresholds th (b [ ("m.cow", 3); ("m.flat", 700) ])))

let test_kind_mismatch_is_error () =
  match Report.diff sample_crash (bench []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "crash vs bench should not be comparable"

(* ------------------------------------------------------------------ *)
(* End to end: a real campaign's artifact                              *)
(* ------------------------------------------------------------------ *)

let small_campaign () =
  (* One fault kind over the full block-type/workload grid is plenty:
     the artifact still carries hundreds of cells but runs in tens of
     milliseconds. *)
  Driver.fingerprint
    ~faults:[ Iron_core.Taxonomy.Read_failure ]
    ~seed:1234 Iron_ext3.Ext3.std

let test_campaign_round_trip () =
  let art = Report.of_fingerprint ~seed:1234 (small_campaign ()) in
  match Report.of_string (Report.to_string art) with
  | Ok art' ->
      check Alcotest.bool "campaign artifact round-trips" true (art = art');
      check Alcotest.int "round-trip diffs empty" 0
        (List.length (diff_ok art art'))
  | Error e -> Alcotest.fail e

let test_fuzz_round_trip () =
  (* End to end for the fuzz kind: a real (tiny, seq-1) campaign's
     artifact survives the codec unchanged and diffs empty. *)
  let art = Report.of_fuzz (Iron_fuzz.Fuzz.campaign ~seq:1 Iron_ext3.Ext3.std) in
  check Alcotest.string "filename is brand-keyed" "fuzz-ext3.json"
    (Report.filename art);
  match Report.of_string (Report.to_string art) with
  | Ok art' ->
      check Alcotest.bool "fuzz artifact round-trips" true (art = art');
      check Alcotest.int "round-trip diffs empty" 0
        (List.length (diff_ok art art'))
  | Error e -> Alcotest.fail e

let test_campaign_single_cell_perturbation () =
  (* The acceptance property of the whole subsystem: flip ONE policy
     cell in a real fingerprint and the diff must fail, naming it. *)
  let art = Report.of_fingerprint ~seed:1234 (small_campaign ()) in
  let fp = match art with Report.Fingerprint f -> f | _ -> assert false in
  (* Deterministically pick a fired cell to flip (seeded choice). *)
  let fired_cells =
    List.concat_map
      (fun m -> List.filter (fun c -> c.Report.fired > 0) m.Report.cells)
      fp.Report.matrices
  in
  check Alcotest.bool "campaign has fired cells" true (fired_cells <> []);
  let rng = Iron_util.Prng.create 42 in
  let victim =
    List.nth fired_cells (Iron_util.Prng.int rng (List.length fired_cells))
  in
  let perturbed =
    Report.Fingerprint
      {
        fp with
        Report.matrices =
          List.map
            (fun m ->
              {
                m with
                Report.cells =
                  List.map
                    (fun c ->
                      if c = victim then
                        { c with Report.d_sym = "X"; detection = [ "DSanity" ] }
                      else c)
                    m.Report.cells;
              })
            fp.Report.matrices;
      }
  in
  match diff_ok art perturbed with
  | [ item ] ->
      let expect =
        Printf.sprintf "fingerprint/ext3/Read Failure/%s:%s" victim.Report.row
          victim.Report.col
      in
      check Alcotest.string "perturbed cell is named" expect item.Report.path
  | items ->
      Alcotest.failf "expected exactly 1 differing cell, got %d"
        (List.length items)

(* ------------------------------------------------------------------ *)
(* Differential: the derived codec and differ against Report_ref       *)
(* ------------------------------------------------------------------ *)

module Prng = Iron_util.Prng

(* [Report_ref] is the hand-written module the field lists replaced. It
   declares the same types in the same order, so equal values have
   equal representations. *)
let same_value (a : Report.t) (r : Report_ref.t) = Obj.repr a = Obj.repr r

(* [dune runtest] runs in the build tree's test directory, next to a
   copy of the committed artifacts; [dune exec] runs from the root. *)
let repo_path name =
  let in_build = Filename.concat ".." name in
  if Sys.file_exists in_build then in_build else name

let committed () =
  let dir = repo_path "golden" in
  (Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (Filename.concat dir))
  @ [ repo_path "BENCH_fingerprint.json" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One document through both modules: the same decision and, when both
   accept it, the same value and the same encoding. *)
let decode_both label s =
  match (Report.of_string s, Report_ref.of_string s) with
  | Ok d, Ok r ->
      if not (same_value d r) then
        Alcotest.failf "%s: the decoders disagree on the value" label;
      if not (String.equal (Report.to_string d) (Report_ref.to_string r)) then
        Alcotest.failf "%s: the encoders disagree" label;
      Some (d, r)
  | Error _, Error _ -> None
  | Ok _, Error e ->
      Alcotest.failf "%s: only the reference rejects it: %s" label e
  | Error e, Ok _ ->
      Alcotest.failf "%s: only the derived decoder rejects it: %s" label e

let diff_text diff pp g f =
  match diff g f with
  | Ok items -> Format.asprintf "%a" pp items
  | Error e -> "error: " ^ e

(* The same report, in both directions, at the default and a tighter
   timing tolerance. *)
let diffs_agree label (d1, r1) (d2, r2) =
  List.iter
    (fun timing_tol ->
      let derived = diff_text (Report.diff ~timing_tol) Report.pp_items
      and reference =
        diff_text (Report_ref.diff ~timing_tol) Report_ref.pp_items
      in
      if
        derived d1 d2 <> reference r1 r2 || derived d2 d1 <> reference r2 r1
      then
        Alcotest.failf "%s: the differs disagree at tolerance %g" label
          timing_tol)
    [ 0.5; 0.1 ]

let drop_nth l i = List.filteri (fun j _ -> j <> i) l
let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

(* One random edit at a random depth: a scalar nudged or given another
   type, or a member or element dropped, duplicated or moved to the
   front. *)
let rec mutate rng (j : Json.t) =
  let structural = Prng.int rng 4 = 0 in
  match j with
  | Json.Assoc (_ :: _ as ms) -> (
      let i = Prng.int rng (List.length ms) in
      let k, v = List.nth ms i in
      if not structural then Json.Assoc (replace_nth ms i (k, mutate rng v))
      else
        match Prng.int rng 3 with
        | 0 -> Json.Assoc (drop_nth ms i)
        | 1 -> Json.Assoc (ms @ [ (k, mutate rng v) ])
        | _ -> Json.Assoc ((k, v) :: drop_nth ms i))
  | Json.List (_ :: _ as l) -> (
      let i = Prng.int rng (List.length l) in
      let v = List.nth l i in
      if not structural then Json.List (replace_nth l i (mutate rng v))
      else
        match Prng.int rng 3 with
        | 0 -> Json.List (drop_nth l i)
        | 1 -> Json.List (l @ [ v ])
        | _ -> Json.List (v :: drop_nth l i))
  | Json.Int n -> (
      match Prng.int rng 4 with
      | 0 -> Json.String (string_of_int n)
      | 1 -> Json.Int (n - 1)
      | _ -> Json.Int (n + 1))
  | Json.String s -> (
      match Prng.int rng 4 with
      | 0 -> Json.Int (String.length s)
      | 1 -> Json.String ""
      | _ -> Json.String (s ^ "~"))
  | Json.Bool b -> if Prng.int rng 4 = 0 then Json.Null else Json.Bool (not b)
  | Json.Assoc [] | Json.List [] | Json.Null | Json.Float _ ->
      Json.List [ Json.Int 0 ]

(* The one decision the derived decoder changes on purpose: a rule
   whose [le_metric] is not a string is rejected, where the reference
   loaded it without that bound. *)
let rec mistyped_le_metric = function
  | Json.Assoc ms ->
      (match List.assoc_opt "le_metric" ms with
      | None | Some (Json.String _) -> false
      | Some _ -> true)
      || List.exists (fun (_, v) -> mistyped_le_metric v) ms
  | Json.List l -> List.exists mistyped_le_metric l
  | _ -> false

(* [count] mutants of [s] (two edits each): the same decision, value
   and encoding, and the same diff against [base] and each partner. *)
let mutants_agree ~seed ~count ~partners label base s =
  let rng = Prng.create seed in
  let j = Result.get_ok (Json.of_string s) in
  for n = 1 to count do
    let m = mutate rng (mutate rng j) in
    let label = Printf.sprintf "%s, mutant %d" label n in
    if mistyped_le_metric m then (
      match Report.of_string (Json.to_string m) with
      | Ok _ -> Alcotest.failf "%s: accepted a mistyped le_metric" label
      | Error _ -> ())
    else
      match decode_both label (Json.to_string m) with
      | None -> ()
      | Some dm ->
          List.iter (fun p -> diffs_agree label p dm) (base :: partners)
  done

let test_committed_agree () =
  List.iter
    (fun path ->
      let s = read_file path in
      match decode_both path s with
      | None -> Alcotest.failf "%s: rejected by both decoders" path
      | Some (d, _) ->
          if
            Filename.basename path <> "bench-thresholds.json"
            && not (String.equal (Report.to_string d) s)
          then Alcotest.failf "%s: does not re-encode to its own bytes" path)
    (committed ())

(* Each mutant of a bench record is also checked against the committed
   thresholds, and each mutated rule set against the committed bench
   record. *)
let test_committed_mutants () =
  let load path = Option.get (decode_both path (read_file path)) in
  let partners =
    [
      load (repo_path "golden/bench-thresholds.json");
      load (repo_path "BENCH_fingerprint.json");
    ]
  in
  List.iteri
    (fun seed path ->
      let s = read_file path in
      mutants_agree ~seed ~count:40 ~partners path (load path) s)
    (committed ())

let prop_generated_agree =
  QCheck.Test.make ~name:"generated artifacts agree with the reference"
    ~count:100
    (QCheck.make
       ~print:(fun (a, _) -> Report.to_string a)
       QCheck.Gen.(pair gen_artifact int))
    (fun (art, seed) ->
      let s = Report.to_string art in
      match decode_both "generated" s with
      | None -> QCheck.Test.fail_report "rejected by both decoders"
      | Some d ->
          mutants_agree ~seed ~count:10 ~partners:[] "generated" d s;
          true)

let suites =
  [
    ( "report.json",
      [
        Alcotest.test_case "escape round-trip" `Quick test_json_escapes;
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        Alcotest.test_case "int vs float" `Quick test_json_int_vs_float;
      ] );
    ( "report.codec",
      [
        qtest prop_round_trip;
        qtest prop_canonical;
        Alcotest.test_case "rejects unknown schema version" `Quick
          test_rejects_unknown_version;
        Alcotest.test_case "rejects unknown kind" `Quick
          test_rejects_unknown_kind;
        Alcotest.test_case "rejects a mistyped le_metric" `Quick
          test_rejects_mistyped_le_metric;
      ] );
    ( "report.diff",
      [
        Alcotest.test_case "matrices compare exactly" `Quick
          test_matrix_diff_exact;
        Alcotest.test_case "applicability changes are drift" `Quick
          test_matrix_diff_applicability;
        Alcotest.test_case "crash counts compare exactly" `Quick
          test_crash_diff_exact;
        Alcotest.test_case "forensics chains compare exactly" `Quick
          test_forensics_diff_exact;
        Alcotest.test_case "metric sets compare exactly" `Quick
          test_metrics_diff_exact;
        Alcotest.test_case "timing metrics use tolerance" `Quick
          test_bench_diff_tolerance;
        Alcotest.test_case "threshold rules" `Quick test_thresholds;
        Alcotest.test_case "kind mismatch is an error" `Quick
          test_kind_mismatch_is_error;
      ] );
    ( "report.campaign",
      [
        Alcotest.test_case "real artifact round-trips" `Quick
          test_campaign_round_trip;
        Alcotest.test_case "real fuzz artifact round-trips" `Quick
          test_fuzz_round_trip;
        Alcotest.test_case "single flipped cell fails the gate" `Quick
          test_campaign_single_cell_perturbation;
      ] );
    ( "report.differential",
      [
        Alcotest.test_case "committed artifacts decode and encode alike"
          `Quick test_committed_agree;
        Alcotest.test_case "mutated committed artifacts agree" `Quick
          test_committed_mutants;
        qtest prop_generated_agree;
      ] );
  ]
