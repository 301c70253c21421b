(* The crash-state explorer and its write-log recorder.

   The wlog suite pins the recorder's contract: epochs delimited by
   effective syncs, private data copies, failed writes never logged,
   and — the differential check — with recording off the device is
   invisible: a fault-injector tracer below it sees a byte-identical
   request stream and the final disk image matches a run without the
   recorder in the stack.

   The explore suite is the end-to-end story: ext3 without
   transactional checksums replays reordered commits as garbage
   (violations), ixt3 detects the mismatch and refuses (zero
   violations, Tc detections), and the report is a pure function of
   the seed — the worker count cannot change it. *)

open Iron_disk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs
module Wlog = Iron_crash.Wlog
module Explore = Iron_crash.Explore
module Gen = Iron_fuzz.Gen

let check = Alcotest.check

let params = { Memdisk.default_params with Memdisk.num_blocks = 512; seed = 21 }

let make () =
  let d = Memdisk.create ~params () in
  Memdisk.set_time_model d false;
  let w = Wlog.create (Memdisk.dev d) in
  (d, w, Wlog.dev w)

let block dev c = Bytes.make dev.Dev.block_size c

(* --- wlog --------------------------------------------------------------- *)

let test_epoch_accounting () =
  let _, w, dev = make () in
  Wlog.set_recording w true;
  Dev.write_exn dev 1 (block dev 'a');
  Dev.write_exn dev 2 (block dev 'b');
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  (* Back-to-back syncs must not mint empty epochs. *)
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  Dev.write_exn dev 1 (block dev 'c');
  check Alcotest.int "one closed epoch" 1 (Wlog.epochs w);
  check Alcotest.int "three writes" 3 (Wlog.length w);
  let e = Wlog.entries w in
  check Alcotest.int "first write epoch 0" 0 e.(0).Wlog.w_epoch;
  check Alcotest.int "post-sync write epoch 1" 1 e.(2).Wlog.w_epoch;
  check Alcotest.int "seq numbers in issue order" 2 e.(2).Wlog.w_seq;
  Wlog.clear w;
  check Alcotest.int "clear drops the log" 0 (Wlog.length w);
  check Alcotest.int "clear resets epochs" 0 (Wlog.epochs w)

let test_private_copies () =
  let _, w, dev = make () in
  Wlog.set_recording w true;
  let buf = block dev 'x' in
  Dev.write_exn dev 3 buf;
  Bytes.fill buf 0 (Bytes.length buf) 'y';
  let e = Wlog.entries w in
  check Alcotest.bytes "log holds a frozen copy" (block dev 'x')
    e.(0).Wlog.w_data

let test_failed_writes_not_recorded () =
  let d = Memdisk.create ~params () in
  Memdisk.set_time_model d false;
  let inj = Fault.create (Memdisk.dev d) in
  ignore (Fault.arm inj (Fault.rule (Fault.Block 7) Fault.Fail_write));
  let w = Wlog.create (Fault.dev inj) in
  let dev = Wlog.dev w in
  Wlog.set_recording w true;
  (match dev.Dev.write 7 (block dev 'z') with
  | Error Dev.Eio -> ()
  | _ -> Alcotest.fail "expected the injected write failure");
  Dev.write_exn dev 8 (block dev 'k');
  check Alcotest.int "only the successful write is logged" 1 (Wlog.length w);
  check Alcotest.int "and it is block 8" 8 (Wlog.entries w).(0).Wlog.w_block

let test_recording_off_logs_nothing () =
  let _, w, dev = make () in
  Dev.write_exn dev 1 (block dev 'a');
  (match dev.Dev.sync () with Ok () -> () | Error _ -> Alcotest.fail "sync");
  check Alcotest.int "nothing logged" 0 (Wlog.length w);
  check Alcotest.int "no epochs" 0 (Wlog.epochs w)

(* The differential: mount ext3 and run the standard fixture twice on
   identical disks — once with the (non-recording) wlog in the stack,
   once without. A tracing fault injector below both must observe the
   same request stream, and the final images must match byte for
   byte. *)
let test_invisible_when_off () =
  let run ~with_wlog =
    let d = Memdisk.create ~params () in
    Memdisk.set_time_model d false;
    let inj = Fault.create (Memdisk.dev d) in
    let below = Fault.dev inj in
    let dev =
      if with_wlog then Wlog.dev (Wlog.create below) else below
    in
    (match Fs.mkfs Iron_ext3.Ext3.std dev with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "mkfs");
    (match Fs.mount Iron_ext3.Ext3.std dev with
    | Ok (Fs.Boxed ((module F), t) as boxed) ->
        (match Iron_core.Workload.fixture boxed with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "fixture");
        (match F.sync t with Ok () -> () | Error _ -> Alcotest.fail "sync");
        ignore (F.unmount t)
    | Error _ -> Alcotest.fail "mount");
    (Fault.trace inj, List.init params.Memdisk.num_blocks (Memdisk.peek d))
  in
  let trace_ref, image_ref = run ~with_wlog:false in
  let trace_w, image_w = run ~with_wlog:true in
  check Alcotest.int "same number of device requests" (List.length trace_ref)
    (List.length trace_w);
  check Alcotest.bool "request streams identical" true (trace_ref = trace_w);
  check Alcotest.bool "final images identical" true
    (List.for_all2 Bytes.equal image_ref image_w)

(* --- explore ------------------------------------------------------------ *)

let test_ext3_vs_ixt3 () =
  (* The paper's §6.1 story, end to end: a reorder window that keeps
     the commit block but drops journal payload makes vanilla ext3
     replay stale bytes over live metadata; ixt3's transactional
     checksum spots the mismatch and refuses the transaction. *)
  let e3 = Explore.explore ~jobs:2 ~max_states:400 Iron_ext3.Ext3.std in
  let ix = Explore.explore ~jobs:2 ~max_states:400 Iron_ext3.Ext3.ixt3 in
  check Alcotest.bool "hundreds of distinct states (ext3)" true (e3.Explore.states >= 300);
  check Alcotest.bool "hundreds of distinct states (ixt3)" true (ix.Explore.states >= 300);
  check Alcotest.bool "ext3 has crash-consistency violations" true
    (e3.Explore.violations <> []);
  check Alcotest.int "ext3 has no Tc to detect with" 0 e3.Explore.tc_detected;
  check Alcotest.int "ixt3 survives every crash state" 0
    (List.length ix.Explore.violations);
  check Alcotest.bool "ixt3's Tc refused reordered commits" true
    (ix.Explore.tc_detected >= 1)

let test_checkpoint_tail_advance () =
  (* Regression (found by the B3 fuzzer): the journal must not advance
     its tail — write the cleaned superblock — in the same barrier
     epoch as its checkpoint in-place writes. A crash that persists
     the superblock while dropping a checkpoint write would have no
     replay path: the log says clean, the home location is stale.
     Property: every barrier-honouring crash state (an epoch window,
     not the lying-cache "all" window) with E >= 1 recovers
     fsck-clean. *)
  List.iter
    (fun (name, brand) ->
      let params =
        { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 99 }
      in
      let base = Explore.make_base ~params ~setup:(fun _ -> ()) brand in
      let session =
        Explore.record_session ~params ~base
          ~ops:(fun (Fs.Boxed ((module F), t)) ~closed_epochs:_ ->
            (match F.creat t "/victim" with
            | Ok fd -> ignore (F.close t fd)
            | Error _ -> Alcotest.fail "creat /victim");
            match F.sync t with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "sync")
          brand
      in
      let specs = Explore.enumerate_session ~seed:5 ~max_states:400 session in
      let expects ~epoch:_ = [] in
      List.iter
        (fun spec ->
          let label = Explore.spec_label spec in
          if String.length label > 0 && label.[0] = 'e'
             && Explore.spec_epoch session spec >= 1
          then
            let o =
              Explore.check_spec ~params ~brand ~fsck:true ~expects session spec
            in
            match o.Explore.viol with
            | None -> ()
            | Some (k, d) ->
                Alcotest.failf "%s: %s: %s: %s" name (Explore.spec_label spec)
                  (Explore.kind_to_string k) d)
        specs)
    [ ("ext3", Iron_ext3.Ext3.std); ("ixt3", Iron_ext3.Ext3.ixt3) ]

let test_jobs_deterministic () =
  (* Every journaling brand, including the ext3 commit-mode variants:
     exploring with one worker and with three must produce the same
     report, violation for violation. *)
  List.iter
    (fun (name, brand) ->
      let r1 = Explore.explore ~jobs:1 ~max_states:100 brand in
      let r3 = Explore.explore ~jobs:3 ~max_states:100 brand in
      check Alcotest.bool (name ^ ": report is a pure function of the seed")
        true (r1 = r3);
      check Alcotest.bool (name ^ ": states were explored") true
        (r1.Explore.states > 0))
    [
      ("ext3", Iron_ext3.Ext3.std);
      ("ixt3", Iron_ext3.Ext3.ixt3);
      ("ext3-writeback", Iron_ext3.Modes.writeback);
      ("ext3-data", Iron_ext3.Modes.data);
      ("jfs", Iron_jfs.Jfs.brand);
      ("reiserfs", Iron_reiserfs.Reiserfs.brand);
      ("ntfs", Iron_ntfs.Ntfs.brand);
    ]

let test_check_forms_agree () =
  (* The one check skeleton from both ends. On every state of one
     session, [check_spec_all] must see what [check_spec] sees: the
     same Tc flag; [check_spec]'s data loss as its first failed path,
     unless a later path panicked the walk; and any other outcome as
     its global one, with no failed path. Both fixture files must keep
     their fixture content: some lying-cache states break that on ext3,
     and ixt3's Tc refuses the same reorderings. *)
  let params =
    { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 99 }
  in
  let expects ~epoch:_ =
    List.map
      (fun path ->
        {
          Explore.ex_path = path;
          ex_presence = `Present;
          ex_allowed = Some [ Gen.init_content path ];
        })
      [ "/f0"; "/d0/f1" ]
  in
  let run brand =
    let base = Explore.make_base ~params ~setup:Gen.setup brand in
    let session =
      Explore.record_session ~params ~base
        ~ops:(fun (Fs.Boxed ((module F), t)) ~closed_epochs:_ ->
          (match F.creat t "/d1/f2" with
          | Ok fd -> ignore (F.close t fd)
          | Error _ -> Alcotest.fail "creat /d1/f2");
          match F.sync t with Ok () -> () | Error _ -> Alcotest.fail "sync")
        brand
    in
    let losses = ref 0 and both = ref 0 and tc = ref 0 in
    List.iter
      (fun spec ->
        let label = Explore.spec_label spec in
        let o =
          Explore.check_spec ~params ~brand ~fsck:false ~expects session spec
        in
        let a = Explore.check_spec_all ~params ~brand ~expects session spec in
        check Alcotest.bool (label ^ ": same Tc flag") o.Explore.tc
          a.Explore.oa_tc;
        if o.Explore.tc then incr tc;
        if List.length a.Explore.oa_failed = 2 then incr both;
        match (o.Explore.viol, a.Explore.oa_global) with
        | Some (Explore.Data_loss, _), Some (Explore.Panic, _) -> incr losses
        | Some (Explore.Data_loss, d), _ -> (
            incr losses;
            match a.Explore.oa_failed with
            | (_, first) :: _ ->
                check Alcotest.string (label ^ ": first failed detail") d first
            | [] -> Alcotest.failf "%s: check_spec_all missed %s" label d)
        | viol, global ->
            check Alcotest.bool (label ^ ": same outcome") true (viol = global);
            check Alcotest.int (label ^ ": no failed path") 0
              (List.length a.Explore.oa_failed))
      (Explore.enumerate_session ~seed:5 ~max_states:400 session);
    (!losses, !both, !tc)
  in
  let losses, both, _ = run Iron_ext3.Ext3.std in
  check Alcotest.bool "ext3: some state loses a fixture file" true (losses > 0);
  check Alcotest.bool "ext3: some state loses both" true (both > 0);
  let losses, _, tc = run Iron_ext3.Ext3.ixt3 in
  check Alcotest.int "ixt3: no state loses a fixture file" 0 losses;
  check Alcotest.bool "ixt3: Tc fired" true (tc > 0)

(* --- forensics ---------------------------------------------------------- *)

let test_forensics_attribution () =
  (* The §6.1 causal story, minimized: ext3's violations come from a
     journal payload (or commit) write that the reorder window dropped
     while the commit record persisted — and the chain names the
     transaction and epoch. *)
  let r = Explore.explore ~max_states:300 ~forensics:true Iron_ext3.Ext3.std in
  check Alcotest.bool "violations found" true (r.Explore.violations <> []);
  check Alcotest.int "one chain per violation"
    (List.length r.Explore.violations)
    (List.length r.Explore.chains);
  check Alcotest.int "full provenance log kept" r.Explore.log_len
    (List.length r.Explore.log);
  check Alcotest.bool "every chain has culprits" true
    (List.for_all (fun c -> c.Explore.ch_culprits <> []) r.Explore.chains);
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  check Alcotest.bool "some chain blames an orphaned commit record" true
    (List.exists
       (fun c -> contains ~sub:"commit record of txn" c.Explore.ch_summary)
       r.Explore.chains);
  check Alcotest.bool "some culprit is a journal payload write" true
    (List.exists
       (fun c ->
         List.exists (fun cu -> cu.Explore.cu_role = "payload") c.Explore.ch_culprits)
       r.Explore.chains);
  (* Culprit seqs point into the recorded log and carry its provenance. *)
  List.iter
    (fun c ->
      List.iter
        (fun cu ->
          check Alcotest.bool "culprit seq in log range" true
            (cu.Explore.cu_first_seq >= 0 && cu.Explore.cu_first_seq < r.Explore.log_len);
          let l = List.nth r.Explore.log cu.Explore.cu_first_seq in
          check Alcotest.int "culprit block matches log" cu.Explore.cu_block
            l.Explore.lg_block;
          check Alcotest.int "culprit epoch matches log" cu.Explore.cu_epoch
            l.Explore.lg_epoch)
        c.Explore.ch_culprits)
    r.Explore.chains

let test_forensics_does_not_perturb () =
  (* The forensics pass is a pure observer: the violation set (what the
     crash goldens pin) is byte-identical with it on or off, and ixt3
     still survives every state — zero chains. *)
  let off = Explore.explore ~max_states:200 Iron_ext3.Ext3.std in
  let on = Explore.explore ~max_states:200 ~forensics:true Iron_ext3.Ext3.std in
  check Alcotest.bool "same violations with forensics on" true
    (off.Explore.violations = on.Explore.violations
    && off.Explore.states = on.Explore.states
    && off.Explore.tc_detected = on.Explore.tc_detected);
  check Alcotest.bool "forensics off keeps no chains or log" true
    (off.Explore.chains = [] && off.Explore.log = []);
  let ix = Explore.explore ~max_states:200 ~forensics:true Iron_ext3.Ext3.ixt3 in
  check Alcotest.int "ixt3: no violations, no chains" 0
    (List.length ix.Explore.chains);
  check Alcotest.bool "ixt3: provenance log still recorded" true
    (ix.Explore.log <> [])

let test_forensics_jobs_deterministic () =
  (* Chains, culprits and the provenance log — and therefore the
     forensics artifact bytes — are a pure function of the seed. *)
  let r1 =
    Explore.explore ~jobs:1 ~max_states:200 ~forensics:true Iron_ext3.Ext3.std
  in
  let r3 =
    Explore.explore ~jobs:3 ~max_states:200 ~forensics:true Iron_ext3.Ext3.std
  in
  check Alcotest.bool "forensics report is a pure function of the seed" true
    (r1 = r3);
  check Alcotest.bool "chains computed" true (r1.Explore.chains <> []);
  let bytes r =
    Iron_report.Report.to_string
      (Iron_report.Report.of_forensics ~seed:7 ~max_states:200 r)
  in
  check Alcotest.string "artifact bytes identical across -j" (bytes r1)
    (bytes r3)

let suites =
  [
    ( "crash.wlog",
      [
        Alcotest.test_case "epoch accounting" `Quick test_epoch_accounting;
        Alcotest.test_case "private data copies" `Quick test_private_copies;
        Alcotest.test_case "failed writes not recorded" `Quick
          test_failed_writes_not_recorded;
        Alcotest.test_case "recording off logs nothing" `Quick
          test_recording_off_logs_nothing;
        Alcotest.test_case "invisible when off (differential)" `Quick
          test_invisible_when_off;
      ] );
    ( "crash.explore",
      [
        Alcotest.test_case "ext3 corrupts, ixt3 detects (Tc)" `Slow
          test_ext3_vs_ixt3;
        Alcotest.test_case "-j cannot change the report" `Slow
          test_jobs_deterministic;
        Alcotest.test_case "checkpoint precedes the log-tail advance" `Quick
          test_checkpoint_tail_advance;
        Alcotest.test_case "check_spec and check_spec_all agree" `Quick
          test_check_forms_agree;
      ] );
    ( "crash.forensics",
      [
        Alcotest.test_case "violations attribute to culprit writes" `Slow
          test_forensics_attribution;
        Alcotest.test_case "forensics is a pure observer" `Slow
          test_forensics_does_not_perturb;
        Alcotest.test_case "-j cannot change chains or artifact bytes" `Slow
          test_forensics_jobs_deterministic;
      ] );
  ]
