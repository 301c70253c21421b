(* Tests for the fail-partial fault injector. *)

open Iron_disk
open Iron_fault

let check = Alcotest.check

let make () =
  let d =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 64; seed = 9 }
      ()
  in
  let inj = Fault.create (Memdisk.dev d) in
  (d, inj, Fault.dev inj)

let block dev c = Bytes.make dev.Dev.block_size c

let test_passthrough () =
  let _, _, dev = make () in
  Dev.write_exn dev 1 (block dev 'p');
  check Alcotest.bytes "no rules = passthrough" (block dev 'p') (Dev.read_exn dev 1)

let test_sticky_read_failure () =
  let _, inj, dev = make () in
  Dev.write_exn dev 2 (block dev 'd');
  ignore (Fault.arm inj (Fault.rule (Fault.Block 2) Fault.Fail_read));
  for _ = 1 to 3 do
    match dev.Dev.read 2 with
    | Error Dev.Eio -> ()
    | Ok _ | Error Dev.Enxio -> Alcotest.fail "expected sticky EIO"
  done;
  (* Other blocks unaffected. *)
  match dev.Dev.read 3 with Ok _ -> () | Error _ -> Alcotest.fail "collateral"

let test_transient_failure () =
  let _, inj, dev = make () in
  Dev.write_exn dev 4 (block dev 't');
  ignore
    (Fault.arm inj
       (Fault.rule ~persistence:(Fault.Transient 2) (Fault.Block 4) Fault.Fail_read));
  (match dev.Dev.read 4 with Error Dev.Eio -> () | _ -> Alcotest.fail "1st");
  (match dev.Dev.read 4 with Error Dev.Eio -> () | _ -> Alcotest.fail "2nd");
  match dev.Dev.read 4 with
  | Ok data -> check Alcotest.bytes "3rd succeeds" (block dev 't') data
  | Error _ -> Alcotest.fail "transient did not clear"

let test_write_failure_drops_data () =
  let d, inj, dev = make () in
  Dev.write_exn dev 5 (block dev 'o');
  ignore (Fault.arm inj (Fault.rule (Fault.Block 5) Fault.Fail_write));
  (match dev.Dev.write 5 (block dev 'n') with
  | Error Dev.Eio -> ()
  | _ -> Alcotest.fail "expected EIO");
  check Alcotest.bytes "old data intact" (block dev 'o') (Memdisk.peek d 5)

let test_corruption_silent () =
  let _, inj, dev = make () in
  Dev.write_exn dev 6 (block dev 'c');
  ignore (Fault.arm inj (Fault.rule (Fault.Block 6) (Fault.Corrupt (Fault.Noise 1))));
  match dev.Dev.read 6 with
  | Ok data ->
      check Alcotest.bool "returns Ok with bad data" true
        (not (Bytes.equal data (block dev 'c')))
  | Error _ -> Alcotest.fail "corruption must be silent"

let test_corruption_zeroes_and_bitflip () =
  let _, inj, dev = make () in
  Dev.write_exn dev 7 (block dev 'z');
  let id = Fault.arm inj (Fault.rule (Fault.Block 7) (Fault.Corrupt Fault.Zeroes)) in
  (match dev.Dev.read 7 with
  | Ok data -> check Alcotest.bytes "zeroed" (block dev '\000') data
  | Error _ -> Alcotest.fail "read");
  Fault.disarm inj id;
  ignore (Fault.arm inj (Fault.rule (Fault.Block 7) (Fault.Corrupt (Fault.Bit_flip 3))));
  match dev.Dev.read 7 with
  | Ok data ->
      let orig = block dev 'z' in
      let diff = ref 0 in
      Bytes.iteri
        (fun i c -> if c <> Bytes.get orig i then incr diff)
        data;
      check Alcotest.int "exactly one byte differs" 1 !diff
  | Error _ -> Alcotest.fail "read"

let test_byte_shift () =
  let _, inj, dev = make () in
  let data = Bytes.init dev.Dev.block_size (fun i -> Char.chr (i mod 256)) in
  Dev.write_exn dev 8 data;
  ignore (Fault.arm inj (Fault.rule (Fault.Block 8) (Fault.Corrupt Fault.Byte_shift)));
  match dev.Dev.read 8 with
  | Ok got ->
      check Alcotest.char "first byte is old last byte"
        (Bytes.get data (Bytes.length data - 1))
        (Bytes.get got 0);
      check Alcotest.char "second byte is old first" (Bytes.get data 0) (Bytes.get got 1)
  | Error _ -> Alcotest.fail "read"

let test_range_scratch () =
  let _, inj, dev = make () in
  ignore (Fault.arm inj (Fault.rule (Fault.Range (10, 14)) Fault.Fail_read));
  for b = 10 to 14 do
    match dev.Dev.read b with
    | Error Dev.Eio -> ()
    | _ -> Alcotest.fail "scratch block should fail"
  done;
  (match dev.Dev.read 9 with Ok _ -> () | Error _ -> Alcotest.fail "edge");
  match dev.Dev.read 15 with Ok _ -> () | Error _ -> Alcotest.fail "edge"

let test_whole_disk () =
  let _, inj, dev = make () in
  ignore (Fault.arm inj (Fault.rule Fault.Whole_disk Fault.Fail_read));
  ignore (Fault.arm inj (Fault.rule Fault.Whole_disk Fault.Fail_write));
  (match dev.Dev.read 0 with Error Dev.Eio -> () | _ -> Alcotest.fail "read");
  match dev.Dev.write 1 (block dev 'x') with
  | Error Dev.Eio -> ()
  | _ -> Alcotest.fail "write"

let test_tweak_corruption () =
  let _, inj, dev = make () in
  Dev.write_exn dev 9 (block dev 'a');
  ignore
    (Fault.arm inj
       (Fault.rule (Fault.Block 9)
          (Fault.Corrupt (Fault.Tweak (fun b -> Bytes.set b 0 'Z')))));
  match dev.Dev.read 9 with
  | Ok data ->
      check Alcotest.char "field tweaked" 'Z' (Bytes.get data 0);
      check Alcotest.char "rest intact" 'a' (Bytes.get data 1)
  | Error _ -> Alcotest.fail "read"

let test_fired_counter_and_disarm () =
  let _, inj, dev = make () in
  let id = Fault.arm inj (Fault.rule (Fault.Block 3) Fault.Fail_read) in
  ignore (dev.Dev.read 3);
  ignore (dev.Dev.read 3);
  check Alcotest.int "fired twice" 2 (Fault.fired inj id);
  Fault.disarm inj id;
  match dev.Dev.read 3 with Ok _ -> () | Error _ -> Alcotest.fail "disarmed"

let test_trace_records_outcomes () =
  let _, inj, dev = make () in
  Fault.set_classifier inj (fun b -> if b = 1 then "special" else "other");
  ignore (Fault.arm inj (Fault.rule (Fault.Block 1) Fault.Fail_read));
  Dev.write_exn dev 0 (block dev 'w');
  ignore (dev.Dev.read 1);
  ignore (dev.Dev.read 2);
  let tr = Fault.trace inj in
  check Alcotest.int "three events" 3 (List.length tr);
  let e1 = List.nth tr 1 in
  check Alcotest.string "label" "special" e1.Fault.label;
  (match e1.Fault.outcome with
  | Fault.Io_error Dev.Eio -> ()
  | _ -> Alcotest.fail "expected recorded error");
  let e0 = List.nth tr 0 in
  check Alcotest.bool "write recorded" true (e0.Fault.dir = Fault.Write)

let test_trace_clear_and_toggle () =
  let _, inj, dev = make () in
  ignore (dev.Dev.read 0);
  Fault.clear_trace inj;
  check Alcotest.int "cleared" 0 (List.length (Fault.trace inj));
  Fault.set_tracing inj false;
  ignore (dev.Dev.read 0);
  check Alcotest.int "tracing off" 0 (List.length (Fault.trace inj))

(* --- semantics regressions ---------------------------------------------

   Four injector bugs found while building the crash-state explorer,
   each pinned by a test that failed on the old implementation:

   1. [Until_write] cleared the whole rule on the first successful
      write anywhere in its target; a remapped sector must heal only
      its own block.
   2. [firing] charged a [Corrupt] rule's budget (and [fired] count)
      even when the read below failed and nothing was injected.
   3. [fired] forgot the count once the rule was disarmed.
   4. [firing] rebuilt [List.rev t.rules] on every I/O (perf; pinned
      here only by the arm-order determinism check). *)

let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4217 |]) t

let test_until_write_per_block () =
  let _, inj, dev = make () in
  ignore
    (Fault.arm inj
       (Fault.rule ~persistence:Fault.Until_write (Fault.Range (10, 13))
          Fault.Fail_read));
  for b = 10 to 13 do
    match dev.Dev.read b with
    | Error Dev.Eio -> ()
    | _ -> Alcotest.fail "latent error should fire"
  done;
  (* Rewrite one sector: the drive remaps that sector only. *)
  Dev.write_exn dev 11 (block dev 'w');
  (match dev.Dev.read 11 with
  | Ok data -> check Alcotest.bytes "remapped block reads back" (block dev 'w') data
  | Error _ -> Alcotest.fail "written block must be healed");
  List.iter
    (fun b ->
      match dev.Dev.read b with
      | Error Dev.Eio -> ()
      | _ -> Alcotest.failf "block %d must keep failing after unrelated write" b)
    [ 10; 12; 13 ]

let test_corrupt_budget_survives_device_error () =
  (* Stack two injectors: the lower one makes the medium itself fail
     the first two reads, the upper one holds a Transient-2 corruption.
     The corruption must inject exactly twice, regardless of how many
     matching reads died below it. *)
  let d =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 64; seed = 9 }
      ()
  in
  let lo = Fault.create (Memdisk.dev d) in
  let hi = Fault.create (Fault.dev lo) in
  let dev = Fault.dev hi in
  Dev.write_exn dev 5 (block dev 'v');
  ignore
    (Fault.arm lo
       (Fault.rule ~persistence:(Fault.Transient 2) (Fault.Block 5) Fault.Fail_read));
  let id =
    Fault.arm hi
      (Fault.rule ~persistence:(Fault.Transient 2) (Fault.Block 5)
         (Fault.Corrupt (Fault.Noise 1)))
  in
  (* Two reads fail below: no injection, no budget consumed. *)
  (match dev.Dev.read 5 with Error Dev.Eio -> () | _ -> Alcotest.fail "1st");
  (match dev.Dev.read 5 with Error Dev.Eio -> () | _ -> Alcotest.fail "2nd");
  check Alcotest.int "no injections charged yet" 0 (Fault.fired hi id);
  (* Medium healed: the corruption budget is still whole. *)
  (match dev.Dev.read 5 with
  | Ok data ->
      check Alcotest.bool "3rd read corrupted" true
        (not (Bytes.equal data (block dev 'v')))
  | Error _ -> Alcotest.fail "3rd");
  (match dev.Dev.read 5 with
  | Ok data ->
      check Alcotest.bool "4th read corrupted" true
        (not (Bytes.equal data (block dev 'v')))
  | Error _ -> Alcotest.fail "4th");
  check Alcotest.int "exactly two injections" 2 (Fault.fired hi id);
  match dev.Dev.read 5 with
  | Ok data -> check Alcotest.bytes "budget spent: clean read" (block dev 'v') data
  | Error _ -> Alcotest.fail "5th"

let test_fired_survives_disarm () =
  let _, inj, dev = make () in
  let id = Fault.arm inj (Fault.rule (Fault.Block 7) Fault.Fail_read) in
  for _ = 1 to 3 do
    ignore (dev.Dev.read 7)
  done;
  Fault.disarm inj id;
  check Alcotest.int "count retained after disarm" 3 (Fault.fired inj id);
  let id2 = Fault.arm inj (Fault.rule (Fault.Block 8) Fault.Fail_read) in
  ignore (dev.Dev.read 8);
  Fault.disarm_all inj;
  check Alcotest.int "count retained after disarm_all" 1 (Fault.fired inj id2)

(* A worker reuses one injector for job after job and resets it per
   job: the reset forgets the armed rule, every retired count and the
   trace, so nothing a job leaves grows with the number of jobs. Ids go
   on counting, so an earlier id never names a later rule. *)
let test_reset_forgets_the_job () =
  let d, _, _ = make () in
  let inj = Fault.create ~trace_cap:2 (Memdisk.dev d) in
  let dev = Fault.dev inj in
  let armed = Fault.arm inj (Fault.rule (Fault.Block 5) Fault.Fail_read) in
  let retired = Fault.arm inj (Fault.rule (Fault.Block 6) Fault.Fail_read) in
  List.iter (fun b -> ignore (dev.Dev.read b)) [ 5; 6; 6 ];
  Fault.disarm inj retired;
  check Alcotest.int "trace overflowed" 1 (Fault.trace_dropped inj);
  Fault.reset inj;
  check Alcotest.int "armed rule's count forgotten" 0 (Fault.fired inj armed);
  check Alcotest.int "retired count forgotten" 0 (Fault.fired inj retired);
  check Alcotest.int "trace empty" 0 (List.length (Fault.trace inj));
  check Alcotest.int "drop count reset" 0 (Fault.trace_dropped inj);
  (match dev.Dev.read 5 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "the armed rule outlived the reset");
  let next = Fault.arm inj (Fault.rule (Fault.Block 5) Fault.Fail_read) in
  ignore (dev.Dev.read 5);
  check Alcotest.int "the next rule counts its own firing" 1
    (Fault.fired inj next);
  check Alcotest.int "an earlier id still reads 0" 0 (Fault.fired inj armed);
  check Alcotest.int "and so does the retired one" 0 (Fault.fired inj retired);
  check
    Alcotest.(list int)
    "the trace numbers events as a fresh injector does" [ 0; 1 ]
    (List.map (fun (e : Fault.event) -> e.Fault.seq) (Fault.trace inj))

let test_arm_order_wins () =
  (* Two rules match the same block: the one armed first decides, and
     disarming it promotes the second — the deterministic order the
     allocation-free matcher must preserve. *)
  let _, inj, dev = make () in
  Dev.write_exn dev 9 (block dev 'k');
  let first = Fault.arm inj (Fault.rule (Fault.Block 9) Fault.Fail_read) in
  ignore (Fault.arm inj (Fault.rule (Fault.Block 9) (Fault.Corrupt Fault.Zeroes)));
  (match dev.Dev.read 9 with
  | Error Dev.Eio -> ()
  | _ -> Alcotest.fail "oldest rule must win");
  Fault.disarm inj first;
  match dev.Dev.read 9 with
  | Ok data -> check Alcotest.bytes "second rule now fires" (block dev '\000') data
  | Error _ -> Alcotest.fail "read"

let prop_until_write_per_block =
  QCheck.Test.make ~count:50 ~name:"Until_write heals exactly the written blocks"
    QCheck.(
      pair (int_range 0 20)
        (small_list (int_range 0 30)))
    (fun (lo, writes) ->
      let hi = lo + 9 in
      let _, inj, dev = make () in
      ignore
        (Fault.arm inj
           (Fault.rule ~persistence:Fault.Until_write (Fault.Range (lo, hi))
              Fault.Fail_read));
      List.iter (fun b -> ignore (dev.Dev.write b (block dev 'q'))) writes;
      let healed b = List.mem b writes in
      List.for_all
        (fun b ->
          match dev.Dev.read b with
          | Ok _ -> healed b
          | Error _ -> not (healed b))
        (List.init (hi - lo + 1) (fun i -> lo + i)))

let prop_transient_exact_injections =
  QCheck.Test.make ~count:50
    ~name:"Transient n = exactly n injections despite device errors"
    QCheck.(pair (int_range 0 4) (int_range 0 4))
    (fun (n, below_fails) ->
      let d =
        Memdisk.create
          ~params:{ Memdisk.default_params with Memdisk.num_blocks = 16; seed = 9 }
          ()
      in
      let lo = Fault.create (Memdisk.dev d) in
      let hi = Fault.create (Fault.dev lo) in
      let dev = Fault.dev hi in
      ignore (dev.Dev.write 3 (block dev 'u'));
      if below_fails > 0 then
        ignore
          (Fault.arm lo
             (Fault.rule ~persistence:(Fault.Transient below_fails) (Fault.Block 3)
                Fault.Fail_read));
      let id =
        Fault.arm hi
          (Fault.rule ~persistence:(Fault.Transient n) (Fault.Block 3)
             (Fault.Corrupt (Fault.Noise 2)))
      in
      for _ = 1 to below_fails + n + 3 do
        ignore (dev.Dev.read 3)
      done;
      Fault.fired hi id = n
      && (* after the budget, reads are clean again *)
      match dev.Dev.read 3 with
      | Ok data -> Bytes.equal data (block dev 'u')
      | Error _ -> false)

let prop_fired_stable_across_disarm =
  QCheck.Test.make ~count:50 ~name:"fired is stable across disarm"
    QCheck.(int_range 0 10)
    (fun hits ->
      let _, inj, dev = make () in
      let id = Fault.arm inj (Fault.rule (Fault.Block 2) Fault.Fail_read) in
      for _ = 1 to hits do
        ignore (dev.Dev.read 2)
      done;
      let before = Fault.fired inj id in
      Fault.disarm inj id;
      before = hits && Fault.fired inj id = hits)

let suites =
  [
    ( "fault.inject",
      [
        Alcotest.test_case "passthrough" `Quick test_passthrough;
        Alcotest.test_case "sticky read failure" `Quick test_sticky_read_failure;
        Alcotest.test_case "transient failure" `Quick test_transient_failure;
        Alcotest.test_case "write failure drops data" `Quick test_write_failure_drops_data;
        Alcotest.test_case "corruption is silent" `Quick test_corruption_silent;
        Alcotest.test_case "zeroes and bit flips" `Quick test_corruption_zeroes_and_bitflip;
        Alcotest.test_case "byte shift" `Quick test_byte_shift;
        Alcotest.test_case "range scratch" `Quick test_range_scratch;
        Alcotest.test_case "whole-disk failure" `Quick test_whole_disk;
        Alcotest.test_case "field tweak" `Quick test_tweak_corruption;
        Alcotest.test_case "fired counter / disarm" `Quick test_fired_counter_and_disarm;
        Alcotest.test_case "trace records outcomes" `Quick test_trace_records_outcomes;
        Alcotest.test_case "trace clear and toggle" `Quick test_trace_clear_and_toggle;
      ] );
    ( "fault.semantics",
      [
        Alcotest.test_case "Until_write heals per block" `Quick
          test_until_write_per_block;
        Alcotest.test_case "Corrupt budget survives device errors" `Quick
          test_corrupt_budget_survives_device_error;
        Alcotest.test_case "fired survives disarm" `Quick test_fired_survives_disarm;
        Alcotest.test_case "reset forgets the job" `Quick
          test_reset_forgets_the_job;
        Alcotest.test_case "arm order wins deterministically" `Quick
          test_arm_order_wins;
        qtest prop_until_write_per_block;
        qtest prop_transient_exact_injections;
        qtest prop_fired_stable_across_disarm;
      ] );
  ]
