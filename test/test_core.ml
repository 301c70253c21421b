(* Tests for the fingerprinting engine itself: taxonomy, the workload
   suite, the campaign driver and its inference, and the renderers. *)

module Driver = Iron_core.Driver
module Taxonomy = Iron_core.Taxonomy
module Workload = Iron_core.Workload
module Render = Iron_core.Render
module Fs = Iron_vfs.Fs

let check = Alcotest.check

let test_taxonomy_symbols_distinct () =
  let dsyms = List.map Taxonomy.detection_symbol Taxonomy.all_detections in
  check Alcotest.int "detection symbols unique"
    (List.length dsyms)
    (List.length (List.sort_uniq compare dsyms));
  let rsyms = List.map Taxonomy.recovery_symbol Taxonomy.all_recoveries in
  check Alcotest.int "recovery symbols unique"
    (List.length rsyms)
    (List.length (List.sort_uniq compare rsyms))

let test_workload_columns_complete () =
  let cols = List.map (fun w -> w.Workload.col) Workload.all in
  check Alcotest.int "twenty columns" 20 (List.length cols);
  check Alcotest.(list char) "a through t"
    (List.init 20 (fun i -> Char.chr (Char.code 'a' + i)))
    (List.sort compare cols)

(* [Workload.pattern] blits a shared period; this is the per-byte
   definition it replaced. *)
let test_pattern_matches_definition () =
  let spec tag n = String.init n (fun i -> Char.chr ((i + Char.code tag) mod 251)) in
  List.iter
    (fun tag ->
      List.iter
        (fun n ->
          if not (String.equal (Workload.pattern tag n) (spec tag n)) then
            Alcotest.failf "pattern %C %d differs from its definition" tag n)
        [ 0; 1; 250; 251; 252; 4096; 40 * 4096 ])
    [ '\000'; 'a'; 'l'; 'x'; '\250'; '\251'; '\255' ]

let test_fixture_applies_to_every_brand () =
  List.iter
    (fun brand ->
      let d =
        Iron_disk.Memdisk.create
          ~params:
            { Iron_disk.Memdisk.default_params with
              Iron_disk.Memdisk.num_blocks = 2048; seed = 71 }
          ()
      in
      Iron_disk.Memdisk.set_time_model d false;
      let dev = Iron_disk.Memdisk.dev d in
      (match Fs.mkfs brand dev with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s mkfs: %s" (Fs.brand_name brand)
            (Iron_vfs.Errno.to_string e));
      match Fs.mount brand dev with
      | Error e ->
          Alcotest.failf "%s mount: %s" (Fs.brand_name brand)
            (Iron_vfs.Errno.to_string e)
      | Ok (Fs.Boxed ((module F), t) as boxed) -> (
          (match Workload.fixture boxed with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s fixture: %s" (Fs.brand_name brand)
                (Iron_vfs.Errno.to_string e));
          (* Every workload's measured phase must succeed fault-free. *)
          List.iter
            (fun w ->
              match w.Workload.kind with
              | Workload.Ops -> (
                  match w.Workload.run boxed with
                  | Ok () -> ()
                  | Error e ->
                      Alcotest.failf "%s workload %c: %s" (Fs.brand_name brand)
                        w.Workload.col (Iron_vfs.Errno.to_string e))
              | Workload.Mount_op | Workload.Umount_op | Workload.Recovery_op -> ())
            Workload.all;
          match F.unmount t with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "%s unmount: %s" (Fs.brand_name brand)
                (Iron_vfs.Errno.to_string e)))
    [
      Iron_ext3.Ext3.std; Iron_reiserfs.Reiserfs.brand; Iron_jfs.Jfs.brand;
      Iron_ntfs.Ntfs.brand; Iron_ext3.Ext3.ixt3;
    ]

(* A focused campaign exercising the driver end to end; small enough to
   run in the unit-test budget. *)
let small_report brand faults cols types =
  Driver.fingerprint ~faults
    ~workloads:(List.map Workload.find cols)
    ~block_types:types brand

let test_driver_ext3_read_failure_inode () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Read_failure ] [ 'a' ] [ "inode" ]
  in
  let m = List.hd r.Driver.matrices in
  let c = m.Driver.cell "inode" 'a' in
  check Alcotest.bool "applicable" true c.Driver.applicable;
  check Alcotest.bool "fired" true (c.Driver.fired > 0);
  check Alcotest.bool "error code detected" true
    (List.mem Taxonomy.DErrorCode c.Driver.detection);
  check Alcotest.bool "propagated" true
    (List.mem Taxonomy.RPropagate c.Driver.recovery)

let test_driver_ext3_write_failure_ignored () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Write_failure ] [ 'g' ] [ "inode" ]
  in
  let m = List.hd r.Driver.matrices in
  let c = m.Driver.cell "inode" 'g' in
  check Alcotest.bool "fired" true (c.Driver.fired > 0);
  check Alcotest.(list string) "DZero: the famous ext3 bug"
    [ "DZero" ]
    (List.map Taxonomy.detection_name c.Driver.detection);
  check Alcotest.(list string) "RZero" [ "RZero" ]
    (List.map Taxonomy.recovery_name c.Driver.recovery)

let test_driver_reiserfs_write_failure_panics () =
  let r =
    small_report Iron_reiserfs.Reiserfs.brand [ Taxonomy.Write_failure ] [ 'g' ]
      [ "j-desc" ]
  in
  let m = List.hd r.Driver.matrices in
  let c = m.Driver.cell "j-desc" 'g' in
  check Alcotest.bool "fired" true (c.Driver.fired > 0);
  check Alcotest.bool "RStop (panic)" true (List.mem Taxonomy.RStop c.Driver.recovery)

let test_driver_jfs_retry_detected () =
  let r =
    small_report Iron_jfs.Jfs.brand [ Taxonomy.Read_failure ] [ 'a' ] [ "inode" ]
  in
  let m = List.hd r.Driver.matrices in
  let c = m.Driver.cell "inode" 'a' in
  check Alcotest.bool "RRetry" true (List.mem Taxonomy.RRetry c.Driver.recovery)

let test_driver_ixt3_redundancy_detected () =
  let r =
    small_report Iron_ext3.Ext3.ixt3 [ Taxonomy.Read_failure ] [ 'a' ] [ "inode" ]
  in
  let m = List.hd r.Driver.matrices in
  let c = m.Driver.cell "inode" 'a' in
  check Alcotest.bool "RRedundancy" true
    (List.mem Taxonomy.RRedundancy c.Driver.recovery);
  (* And the workload itself succeeds: the failure is absorbed. *)
  check Alcotest.string "api ok" "ok" c.Driver.note

let test_driver_na_cells_are_gray () =
  (* readlink never touches the block bitmap. *)
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Read_failure ] [ 'e' ] [ "bitmap" ]
  in
  let m = List.hd r.Driver.matrices in
  let c = m.Driver.cell "bitmap" 'e' in
  check Alcotest.bool "not applicable" false c.Driver.applicable

let test_driver_deterministic () =
  let run () =
    let r =
      small_report Iron_ext3.Ext3.std [ Taxonomy.Corruption ] [ 'd' ] [ "data" ]
    in
    let c = (List.hd r.Driver.matrices).Driver.cell "data" 'd' in
    (c.Driver.fired, c.Driver.detection, c.Driver.recovery, c.Driver.note)
  in
  let a = run () and b = run () in
  check Alcotest.bool "identical reruns" true (a = b)

let test_data_corruption_rguess () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Corruption ] [ 'd' ] [ "data" ]
  in
  let c = (List.hd r.Driver.matrices).Driver.cell "data" 'd' in
  check Alcotest.bool "DZero" true (List.mem Taxonomy.DZero c.Driver.detection);
  check Alcotest.bool "RGuess (wrong data returned)" true
    (List.mem Taxonomy.RGuess c.Driver.recovery)

let test_recovery_column_exercises_replay () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Read_failure ] [ 's' ] [ "j-desc" ]
  in
  let c = (List.hd r.Driver.matrices).Driver.cell "j-desc" 's' in
  check Alcotest.bool "journal descriptor read during recovery" true
    c.Driver.applicable

let test_render_produces_grid () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Read_failure ] [ 'a'; 'b' ]
      [ "inode"; "dir" ]
  in
  let out = Format.asprintf "%a" Render.pp_report r in
  check Alcotest.bool "has header" true
    (String.length out > 0
    &&
    let rec find i =
      i + 5 <= String.length out && (String.sub out i 5 = "inode" || find (i + 1))
    in
    find 0)

let test_summarize_counts () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Read_failure ] [ 'a' ] [ "inode" ]
  in
  match Render.summarize [ r ] with
  | [ (name, ds, _) ] ->
      check Alcotest.string "name" "ext3" name;
      let derr = List.assoc Taxonomy.DErrorCode ds in
      check Alcotest.bool "counted DErrorCode" true (derr > 0)
  | _ -> Alcotest.fail "one summary row"

let test_counters () =
  let r =
    small_report Iron_ext3.Ext3.std [ Taxonomy.Read_failure ] [ 'a' ]
      [ "inode"; "dir" ]
  in
  check Alcotest.int "two fired" 2 (Driver.experiments_run r);
  check Alcotest.bool "recovered subset" true
    (Driver.detected_and_recovered r <= Driver.experiments_run r)

(* The determinism contract for the parallel executor: the rendered
   Figure 2/3 matrices and the Table 5 summary must be byte-identical
   no matter how many worker domains ran the campaign.  Only [stats]
   (wall-clock, worker count) may differ between runs. *)
let test_parallel_byte_identical () =
  let render jobs =
    let r = Driver.fingerprint ~jobs Iron_ext3.Ext3.std in
    let report = Format.asprintf "%a" Render.pp_report r in
    let summary =
      Format.asprintf "%a" Render.pp_summary (Render.summarize [ r ])
    in
    (report, summary)
  in
  let r1, s1 = render 1 in
  let r4, s4 = render 4 in
  check Alcotest.string "Figure 2/3 matrices byte-identical (j1 vs j4)" r1 r4;
  check Alcotest.string "Table 5 summary byte-identical (j1 vs j4)" s1 s4

(* Threading a seed through the spec pins the campaign: equal seeds
   render identically, and the seed reaches every job's derived PRNG. *)
let test_seed_threading () =
  let render seed =
    Format.asprintf "%a" Render.pp_report
      (Driver.fingerprint ~seed
         ~faults:[ Taxonomy.Read_failure ]
         ~workloads:[ Workload.find 'a'; Workload.find 'c' ]
         ~block_types:[ "inode"; "dir" ]
         Iron_ext3.Ext3.std)
  in
  check Alcotest.string "same seed, same report" (render 42) (render 42);
  let plan = Iron_core.Experiment.plan ~seed:7 Iron_ext3.Ext3.std in
  let plan' = Iron_core.Experiment.plan ~seed:8 Iron_ext3.Ext3.std in
  let seeds p =
    List.map
      (fun (j : Iron_core.Experiment.job) -> j.Iron_core.Experiment.seed)
      p.Iron_core.Experiment.jobs
  in
  check Alcotest.bool "campaign seed reaches job seeds" true
    (seeds plan <> seeds plan');
  check Alcotest.int "plan covers the whole campaign"
    (Iron_core.Experiment.total plan)
    (List.length plan.Iron_core.Experiment.jobs)

(* A preparation does not depend on the seed, so one serves every
   seed. Per brand, the seed-7 campaign prepares the images and dry
   traces of a column set no other test plans, and the seed-8 campaign
   reuses them; each must match an observed campaign at its own seed,
   which always prepares afresh. *)
let test_one_preparation_serves_every_seed () =
  let campaign ~observe ~seed brand =
    let r =
      Driver.fingerprint ~observe ~seed
        ~workloads:(List.map Workload.find [ 'a'; 'g'; 'r'; 's' ])
        brand
    in
    (Format.asprintf "%a" Render.pp_report r, Driver.counters r)
  in
  List.iter
    (fun brand ->
      let memo =
        List.map (fun seed -> campaign ~observe:false ~seed brand) [ 7; 8 ]
      in
      List.iter2
        (fun seed (report, counters) ->
          let what = Printf.sprintf "%s seed %d" (Fs.brand_name brand) seed in
          let report', counters' = campaign ~observe:true ~seed brand in
          check Alcotest.string (what ^ ": report") report' report;
          check
            Alcotest.(list (pair string int))
            (what ^ ": counters") counters' counters)
        [ 7; 8 ] memo)
    [
      Iron_ext3.Ext3.std; Iron_ext3.Modes.writeback; Iron_ext3.Modes.data;
      Iron_reiserfs.Reiserfs.brand; Iron_jfs.Jfs.brand; Iron_ntfs.Ntfs.brand;
      Iron_ext3.Ext3.ixt3;
    ]

let suites =
  [
    ( "core.taxonomy",
      [
        Alcotest.test_case "symbols distinct" `Quick test_taxonomy_symbols_distinct;
        Alcotest.test_case "twenty workload columns" `Quick
          test_workload_columns_complete;
      ] );
    ( "core.workloads",
      [
        Alcotest.test_case "pattern matches its definition" `Quick
          test_pattern_matches_definition;
        Alcotest.test_case "fixture + singlets on every FS" `Slow
          test_fixture_applies_to_every_brand;
      ] );
    ( "core.driver",
      [
        Alcotest.test_case "ext3: read failure detected+propagated" `Quick
          test_driver_ext3_read_failure_inode;
        Alcotest.test_case "ext3: write failure ignored" `Quick
          test_driver_ext3_write_failure_ignored;
        Alcotest.test_case "reiserfs: write failure panics" `Quick
          test_driver_reiserfs_write_failure_panics;
        Alcotest.test_case "jfs: retry inferred" `Quick test_driver_jfs_retry_detected;
        Alcotest.test_case "ixt3: redundancy inferred" `Quick
          test_driver_ixt3_redundancy_detected;
        Alcotest.test_case "gray cells" `Quick test_driver_na_cells_are_gray;
        Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
        Alcotest.test_case "data corruption = RGuess" `Quick test_data_corruption_rguess;
        Alcotest.test_case "recovery column replays" `Quick
          test_recovery_column_exercises_replay;
        Alcotest.test_case "parallel run byte-identical to serial" `Slow
          test_parallel_byte_identical;
        Alcotest.test_case "seed threads through the spec" `Quick
          test_seed_threading;
        Alcotest.test_case "one preparation serves every seed" `Quick
          test_one_preparation_serves_every_seed;
      ] );
    ( "core.render",
      [
        Alcotest.test_case "grid renders" `Quick test_render_produces_grid;
        Alcotest.test_case "summary counts" `Quick test_summarize_counts;
        Alcotest.test_case "experiment counters" `Quick test_counters;
      ] );
  ]
