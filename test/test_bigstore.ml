(* Unit tests of the Bigarray slab's safety boundary: every public
   operation validates the slot handle and the byte range, so the
   unsafe blits below can trust their arguments.

   Plus a differential check of the devices built on the slab: two
   Memdisks driven through the production stack (fault injector +
   observability wrapper), trading frozen images back and forth, must
   behave byte for byte like an array of [bytes] blocks. The full
   Memdisk-against-reference suite is in test_image.ml. *)

open Iron_disk
module Fault = Iron_fault.Fault
module Obs = Iron_obs.Obs

let qtest t =
  (* Deterministic: the whole suite replays bit-for-bit. *)
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7211 |]) t

let roundtrip () =
  let s = Bigstore.create ~slot_size:64 in
  (* Allocate across several 256-slot chunk boundaries: slot addresses
     must be stable while the slab grows. *)
  let n = 600 in
  let slots = Array.init n (fun _ -> Bigstore.alloc s) in
  let payload i = Bytes.make 64 (Char.chr (i land 0xff)) in
  Array.iteri (fun i slot -> Bigstore.write s slot (payload i)) slots;
  Array.iteri
    (fun i slot ->
      Alcotest.(check bytes)
        (Printf.sprintf "slot %d" i)
        (payload i) (Bigstore.copy_out s slot))
    slots;
  Alcotest.(check int) "live" n (Bigstore.live s)

(* [alloc] hands back recycled slots with their last owner's bytes, so
   Memdisk seeds a fresh slot from the image before a partial write:
   nothing of the previous owner may leak through [poke]. *)
let recycle_scrubbed () =
  let params =
    { Memdisk.default_params with Memdisk.block_size = 32; num_blocks = 8 }
  in
  let d = Memdisk.create ~params () in
  let blank = Memdisk.snapshot d in
  Memdisk.poke d 1 (Bytes.make 32 '\xAB');
  Memdisk.restore d blank;
  Memdisk.poke d 2 (Bytes.make 5 '\xFF');
  Alcotest.(check bytes) "scrubbed"
    (Bytes.cat (Bytes.make 5 '\xFF') (Bytes.make 27 '\000'))
    (Memdisk.peek d 2)

let dead_slots_rejected () =
  let s = Bigstore.create ~slot_size:32 in
  let a = Bigstore.alloc s in
  Bigstore.free s a;
  let rejects name f =
    Alcotest.check_raises name
      (Invalid_argument (Printf.sprintf "Bigstore.%s: dead slot 0" name))
      (fun () -> f ())
  in
  rejects "copy_out" (fun () -> ignore (Bigstore.copy_out s a));
  rejects "write" (fun () -> Bigstore.write s a (Bytes.create 32));
  rejects "free" (fun () -> Bigstore.free s a);
  (* Never-allocated and out-of-range handles are just as dead. *)
  Alcotest.check_raises "never allocated"
    (Invalid_argument "Bigstore.copy_out: dead slot 7") (fun () ->
      ignore (Bigstore.copy_out s 7));
  Alcotest.check_raises "negative"
    (Invalid_argument "Bigstore.copy_out: dead slot -1") (fun () ->
      ignore (Bigstore.copy_out s (-1)))

let ranges_checked () =
  let s = Bigstore.create ~slot_size:32 in
  let a = Bigstore.alloc s in
  Alcotest.check_raises "write size"
    (Invalid_argument "Bigstore.write: buffer size") (fun () ->
      Bigstore.write s a (Bytes.create 31));
  Alcotest.check_raises "read_into size"
    (Invalid_argument "Bigstore.read_into: buffer size") (fun () ->
      Bigstore.read_into s a (Bytes.create 33));
  Alcotest.check_raises "write_sub over"
    (Invalid_argument "Bigstore.write_sub: range") (fun () ->
      Bigstore.write_sub s a (Bytes.create 64) 33);
  (* A legal partial write leaves the slot's tail intact. *)
  Bigstore.write s a (Bytes.make 32 '\x55');
  Bigstore.write_sub s a (Bytes.make 5 '\xFF') 5;
  let got = Bigstore.copy_out s a in
  Alcotest.(check bytes) "spliced"
    (Bytes.cat (Bytes.make 5 '\xFF') (Bytes.make 27 '\x55'))
    got

(* ---- differential: two devices vs plain bytes ------------------------- *)

type op =
  | Write of int * int (* block selector, payload seed *)
  | Read of int
  | Read_into of int
  | Peek of int
  | Poke of int * int * int (* block, payload seed, length-ish *)
  | Arm_fail_read of int
  | Arm_fail_write of int
  | Clear_faults
  | Snapshot
  | Restore of int (* selector into saved snapshots *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun b s -> Write (b, s)) (int_bound 70) (int_bound 10_000));
        (4, map (fun b -> Read b) (int_bound 70));
        (4, map (fun b -> Read_into b) (int_bound 70));
        (2, map (fun b -> Peek b) (int_bound 63));
        ( 2,
          map3
            (fun b s l -> Poke (b, s, l))
            (int_bound 63) (int_bound 10_000) (int_bound 80) );
        (2, map (fun b -> Arm_fail_read b) (int_bound 63));
        (2, map (fun b -> Arm_fail_write b) (int_bound 63));
        (2, return Clear_faults);
        (2, return Snapshot);
        (2, map (fun i -> Restore i) (int_bound 10));
      ])

let print_op = function
  | Write (b, s) -> Printf.sprintf "Write(%d,%d)" b s
  | Read b -> Printf.sprintf "Read(%d)" b
  | Read_into b -> Printf.sprintf "Read_into(%d)" b
  | Peek b -> Printf.sprintf "Peek(%d)" b
  | Poke (b, s, l) -> Printf.sprintf "Poke(%d,%d,%d)" b s l
  | Arm_fail_read b -> Printf.sprintf "Arm_fail_read(%d)" b
  | Arm_fail_write b -> Printf.sprintf "Arm_fail_write(%d)" b
  | Clear_faults -> "Clear_faults"
  | Snapshot -> "Snapshot"
  | Restore i -> Printf.sprintf "Restore(%d)" i

let num_blocks = 64
let block_size = 512

let payload seed =
  let b = Bytes.create block_size in
  let st = ref seed in
  for i = 0 to block_size - 1 do
    st := (!st * 1103515245) + 12345;
    Bytes.set b i (Char.chr ((!st lsr 16) land 0xff))
  done;
  b

let run_case ops =
  let params =
    { Memdisk.num_blocks; block_size; seed = 7 }
  in
  let mk () =
    let d = Memdisk.create ~params () in
    Memdisk.set_time_model d false;
    d
  in
  let da = mk () and db = mk () in
  (* The production stack above each device: injector, then the
     observability wrapper. *)
  let obs = Obs.create () in
  let a_inj = Fault.create ~obs (Memdisk.dev da) in
  let b_inj = Fault.create ~obs (Memdisk.dev db) in
  let a_dev = Dev.observe obs (Fault.dev a_inj) in
  let b_dev = Dev.observe obs (Fault.dev b_inj) in
  (* The reference: block number -> bytes, no cleverness. *)
  let model = Array.init num_blocks (fun _ -> Bytes.make block_size '\000') in
  let saved = ref [] (* (image, deep copy of model) *) in
  let fail why = QCheck.Test.fail_reportf "%s" why in
  let check_same what a b = if not (a = b) then fail (what ^ ": stacks disagree") in
  let check_block what b =
    if b >= 0 && b < num_blocks then begin
      if not (Bytes.equal (Memdisk.peek da b) model.(b)) then
        fail (Printf.sprintf "%s: device a block %d diverged" what b);
      if not (Bytes.equal (Memdisk.peek db b) model.(b)) then
        fail (Printf.sprintf "%s: device b block %d diverged" what b)
    end
  in
  let check_all what =
    for b = 0 to num_blocks - 1 do
      check_block what b
    done
  in
  let apply op =
    match op with
    | Write (b, s) ->
        let data = payload s in
        let ra = a_dev.Dev.write b data and rb = b_dev.Dev.write b data in
        check_same "write result" ra rb;
        (match ra with Ok () -> Bytes.blit data 0 model.(b) 0 block_size | Error _ -> ());
        check_block "write" b
    | Read b -> (
        match (a_dev.Dev.read b, b_dev.Dev.read b) with
        | Ok x, Ok y ->
            if not (Bytes.equal x y) then fail "read: stacks disagree";
            if not (Bytes.equal x model.(b)) then fail "read: diverged from model"
        | Error ea, Error eb -> check_same "read error" ea eb
        | _ -> fail "read: one stack failed, the other did not")
    | Read_into b -> (
        let ba = Bytes.create block_size and bb = Bytes.create block_size in
        let ra = a_dev.Dev.read_into b ba and rb = b_dev.Dev.read_into b bb in
        check_same "read_into result" ra rb;
        match ra with
        | Ok () ->
            if not (Bytes.equal ba bb) then fail "read_into: stacks disagree";
            if not (Bytes.equal ba model.(b)) then
              fail "read_into: diverged from model"
        | Error _ -> ())
    | Peek b -> check_block "peek" b
    | Poke (b, s, l) ->
        (* Raw partial write under the fault layer's feet; the devices
           clamp to the block size, the model does the same. *)
        let l = min l block_size in
        let data = Bytes.sub (payload s) 0 l in
        Memdisk.poke da b data;
        Memdisk.poke db b data;
        Bytes.blit data 0 model.(b) 0 l;
        check_block "poke" b
    | Arm_fail_read b ->
        ignore (Fault.arm a_inj (Fault.rule (Fault.Block b) Fault.Fail_read));
        ignore (Fault.arm b_inj (Fault.rule (Fault.Block b) Fault.Fail_read))
    | Arm_fail_write b ->
        ignore (Fault.arm a_inj (Fault.rule (Fault.Block b) Fault.Fail_write));
        ignore (Fault.arm b_inj (Fault.rule (Fault.Block b) Fault.Fail_write))
    | Clear_faults ->
        Fault.disarm_all a_inj;
        Fault.disarm_all b_inj
    | Snapshot ->
        (* Alternate which device produces the frozen image; restores
           put it under both, so images cross devices all the time. *)
        let img =
          if List.length !saved mod 2 = 0 then Memdisk.snapshot da
          else Memdisk.snapshot db
        in
        saved := (img, Array.map Bytes.copy model) :: !saved;
        check_all "snapshot"
    | Restore i -> (
        match !saved with
        | [] -> ()
        | l ->
            let img, blocks = List.nth l (i mod List.length l) in
            Memdisk.restore da img;
            Memdisk.restore db img;
            Array.iteri
              (fun b data -> Bytes.blit data 0 model.(b) 0 block_size)
              blocks;
            check_all "restore")
  in
  List.iter apply ops;
  check_all "final";
  true

let differential =
  QCheck.Test.make ~name:"bigstore devices = bytes semantics" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 30 120) op_gen))
    run_case

let suites =
  [
    ( "bigstore",
      [
        Alcotest.test_case "slab roundtrip across chunks" `Quick roundtrip;
        Alcotest.test_case "recycled slots are scrubbed" `Quick recycle_scrubbed;
        Alcotest.test_case "dead slots rejected" `Quick dead_slots_rejected;
        Alcotest.test_case "byte ranges checked" `Quick ranges_checked;
        qtest differential;
      ] );
  ]
