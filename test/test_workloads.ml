(* Tests for the benchmark harness: the application workloads, the
   timed runner, and the space analysis. *)

module Apps = Iron_workloads.Apps
module Runner = Iron_workloads.Runner
module Space = Iron_workloads.Space

let check = Alcotest.check

let test_apps_complete_on_ext3 () =
  List.iter
    (fun app ->
      match Runner.run ~num_blocks:4096 Iron_ext3.Ext3.std app with
      | Ok r ->
          check Alcotest.bool
            (app.Apps.name ^ " produced I/O")
            true
            (r.Runner.writes > 0 || r.Runner.reads > 0)
      | Error e ->
          Alcotest.failf "%s failed: %s" app.Apps.name (Iron_vfs.Errno.to_string e))
    Apps.all

let test_apps_complete_on_full_ixt3 () =
  List.iter
    (fun app ->
      match Runner.run ~num_blocks:4096 Iron_ixt3.Ixt3.full app with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s failed: %s" app.Apps.name (Iron_vfs.Errno.to_string e))
    Apps.all

let test_runner_deterministic () =
  let run () =
    match Runner.run Iron_ext3.Ext3.std Apps.postmark with
    | Ok r -> (r.Runner.elapsed_ms, r.Runner.reads, r.Runner.writes)
    | Error _ -> Alcotest.fail "postmark failed"
  in
  check Alcotest.bool "same seed, same result" true (run () = run ())

let test_runner_seed_changes_workload () =
  let time seed =
    match Runner.run ~seed Iron_ext3.Ext3.std Apps.postmark with
    | Ok r -> r.Runner.writes
    | Error _ -> Alcotest.fail "postmark failed"
  in
  check Alcotest.bool "different seeds differ" true (time 1 <> time 2)

let test_tc_speeds_up_tpcb () =
  let time brand =
    match Runner.run brand Apps.tpcb with
    | Ok r -> r.Runner.elapsed_ms
    | Error _ -> Alcotest.fail "tpcb failed"
  in
  let base = time (Iron_ixt3.Ixt3.brand ()) in
  let tc = time (Iron_ixt3.Ixt3.brand ~tc:true ()) in
  check Alcotest.bool "transactional checksums help" true (tc < base)

let test_mr_costs_on_tpcb () =
  let time brand =
    match Runner.run brand Apps.tpcb with
    | Ok r -> r.Runner.elapsed_ms
    | Error _ -> Alcotest.fail "tpcb failed"
  in
  let base = time (Iron_ixt3.Ixt3.brand ()) in
  let mr = time (Iron_ixt3.Ixt3.brand ~mr:true ()) in
  check Alcotest.bool "replication costs" true (mr > base);
  check Alcotest.bool "but not catastrophically" true (mr < base *. 2.5)

let test_web_overhead_negligible () =
  let time brand =
    match Runner.run brand Apps.web with
    | Ok r -> r.Runner.elapsed_ms
    | Error _ -> Alcotest.fail "web failed"
  in
  let base = time Iron_ext3.Ext3.std in
  let full = time Iron_ixt3.Ixt3.full in
  check Alcotest.bool "read-intensive ratio ~1" true (full /. base < 1.10)

let test_batching_shrinks_tc_benefit () =
  let speedup batch =
    let app = Apps.tpcb_batched batch in
    let time brand =
      match Runner.run brand app with
      | Ok r -> r.Runner.elapsed_ms
      | Error _ -> Alcotest.fail "tpcb failed"
    in
    time (Iron_ixt3.Ixt3.brand ()) /. time (Iron_ixt3.Ixt3.brand ~tc:true ())
  in
  check Alcotest.bool "benefit decays with batching" true
    (speedup 1 > speedup 8)

let test_space_rows_in_band () =
  let rows = Space.measure () in
  check Alcotest.int "three profiles" 3 (List.length rows);
  List.iter
    (fun r ->
      check Alcotest.bool
        (r.Space.profile ^ " parity in a sane band")
        true
        (r.Space.parity_pct > 0.5 && r.Space.parity_pct < 25.0);
      check Alcotest.bool
        (r.Space.profile ^ " meta in a sane band")
        true
        (r.Space.meta_pct > 2.0 && r.Space.meta_pct < 20.0))
    rows;
  (* Parity overhead falls as files grow — the paper's 17% -> 3% trend. *)
  match rows with
  | [ small; _; large ] ->
      check Alcotest.bool "trend" true (small.Space.parity_pct > large.Space.parity_pct)
  | _ -> Alcotest.fail "row count"

(* Table 6's raw numbers, pinned. Each row is one [Runner.run ~seed:42]:
   simulated time, device reads, writes and syncs. ext3 is every row's
   baseline, full ixt3 exercises checksums, replicas and parity, and Dc
   alone checksums data with no parity to fall back on. A change that
   must leave the I/O alone (a faster checksum path, say) has to keep
   every figure exactly. *)
let table6_pins =
  [
    ("ext3", Iron_ext3.Ext3.std,
     [ ("SSH-Build", 8172.508566423021, 10, 319, 7);
       ("Web", 21059.280127932532, 1796, 2, 3);
       ("PostMark", 1714.6397509489668, 1, 781, 17);
       ("TPC-B", 7266.439087974245, 156, 1222, 411) ]);
    ("ixt3 full", Iron_ixt3.Ixt3.full,
     [ ("SSH-Build", 8541.6007512969318, 19, 665, 6);
       ("Web", 21207.486879241489, 1910, 17, 3);
       ("PostMark", 2183.0788350690077, 3, 1282, 14);
       ("TPC-B", 9999.8775288030029, 173, 2938, 219) ]);
    ("ixt3 Dc", Iron_ixt3.Ixt3.brand ~dc:true (),
     [ ("SSH-Build", 8231.6940895125445, 12, 323, 7);
       ("Web", 21063.634246594967, 1797, 2, 3);
       ("PostMark", 1790.7291079291188, 2, 795, 17);
       ("TPC-B", 7404.796116694004, 157, 1647, 413) ]);
  ]

let test_table6_pinned () =
  List.iter
    (fun (fs, brand, rows) ->
      List.iter2
        (fun (app : Apps.t) (name, elapsed_ms, reads, writes, syncs) ->
          check Alcotest.string "row order" name app.Apps.name;
          let what field = Printf.sprintf "%s %s %s" fs name field in
          match Runner.run ~seed:42 brand app with
          | Ok r ->
              check (Alcotest.float 0.) (what "elapsed_ms") elapsed_ms r.Runner.elapsed_ms;
              check Alcotest.int (what "reads") reads r.Runner.reads;
              check Alcotest.int (what "writes") writes r.Runner.writes;
              check Alcotest.int (what "syncs") syncs r.Runner.syncs
          | Error e -> Alcotest.failf "%s: %s" (what "run") (Iron_vfs.Errno.to_string e))
        Apps.all rows)
    table6_pins

let suites =
  [
    ( "workloads",
      [
        Alcotest.test_case "apps complete on ext3" `Slow test_apps_complete_on_ext3;
        Alcotest.test_case "apps complete on full ixt3" `Slow
          test_apps_complete_on_full_ixt3;
        Alcotest.test_case "runner deterministic" `Slow test_runner_deterministic;
        Alcotest.test_case "seed changes workload" `Slow test_runner_seed_changes_workload;
        Alcotest.test_case "Tc speeds up TPC-B" `Slow test_tc_speeds_up_tpcb;
        Alcotest.test_case "Mr costs on TPC-B" `Slow test_mr_costs_on_tpcb;
        Alcotest.test_case "Web overhead negligible" `Slow test_web_overhead_negligible;
        Alcotest.test_case "batching shrinks Tc benefit" `Slow
          test_batching_shrinks_tc_benefit;
        Alcotest.test_case "space rows in band" `Slow test_space_rows_in_band;
        Alcotest.test_case "Table 6 runs pinned at seed 42" `Slow test_table6_pinned;
      ] );
  ]
