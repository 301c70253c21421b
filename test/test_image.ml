(* Tests of the one block image, Memdisk.

   - disk.image: Memdisk differentially against a plain-bytes reference
     device, both under identical fault-injector + observability
     stacks. Random operation sequences cover zero writes, blocks on
     both sides of the chunk boundaries, ENXIO and EIO, armed read and
     write faults, raw peek/poke, and restores to any saved image.
   - disk.cow: the copy-on-write image discipline on a single-chunk
     volume — snapshots are frozen, restore drops only the overlay,
     images share clean blocks and move between devices — and a device
     running over a carried image, frozen after every op, behaving like
     one holding the same contents in its overlay.
   - disk.sparse: the zero-default chunked footprint on multi-chunk
     volumes — untouched chunks and zero writes cost nothing, mkfs
     writes only what its layout names, and a sparse device behaves
     like a fully materialized one, timing and armed faults included.
   - disk.read_into: the zero-copy read path is indistinguishable from
     [read] through every wrapper. *)

open Iron_disk
open Iron_fault

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let err_str = function
  | Dev.Eio -> "EIO"
  | Dev.Enxio -> "ENXIO"

let res_str = function
  | Ok data -> "ok:" ^ Digest.to_hex (Digest.bytes data)
  | Error e -> "err:" ^ err_str e

let unit_str = function
  | Ok () -> "ok"
  | Error e -> "err:" ^ err_str e

let bs = 512
let fill c = Bytes.make bs (Char.chr (c land 0xff))

let params nb seed =
  { Memdisk.block_size = bs; num_blocks = nb; seed }

(* --- the reference device ---------------------------------------------- *)

(* An array of [bytes] and three counters, no cleverness. *)
type reference = {
  blocks : bytes array;
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
}

let reference nb =
  {
    blocks = Array.init nb (fun _ -> Bytes.make bs '\000');
    reads = 0;
    writes = 0;
    syncs = 0;
  }

let reference_dev r =
  let nb = Array.length r.blocks in
  let ok b = b >= 0 && b < nb in
  {
    Dev.block_size = bs;
    num_blocks = nb;
    read =
      (fun b ->
        if not (ok b) then Error Dev.Enxio
        else begin
          r.reads <- r.reads + 1;
          Ok (Bytes.copy r.blocks.(b))
        end);
    read_into =
      (fun b buf ->
        if not (ok b) then Error Dev.Enxio
        else if Bytes.length buf <> bs then Error Dev.Eio
        else begin
          r.reads <- r.reads + 1;
          Bytes.blit r.blocks.(b) 0 buf 0 bs;
          Ok ()
        end);
    write =
      (fun b data ->
        if not (ok b) then Error Dev.Enxio
        else if Bytes.length data <> bs then Error Dev.Eio
        else begin
          r.writes <- r.writes + 1;
          Bytes.blit data 0 r.blocks.(b) 0 bs;
          Ok ()
        end);
    sync =
      (fun () ->
        r.syncs <- r.syncs + 1;
        Ok ());
    now = (fun () -> 0.0);
  }

(* --- the operation language -------------------------------------------- *)

(* Three chunks, the last one partial: every chunk boundary and the end
   of the volume are in reach of the block generator. *)
let nb = (2 * Memdisk.chunk_blocks) + 76

type op =
  | Read of int
  | Read_into of int
  | Bad_read_into of int (* wrong-size buffer *)
  | Write of int * int (* block, fill byte; 0 = the zero-write path *)
  | Bad_write of int (* wrong-size buffer *)
  | Sync
  | Peek of int
  | Poke of int * int * int (* block, fill byte, length *)
  | Arm_fail_read of int
  | Arm_fail_write of int
  | Clear_faults
  | Snapshot
  | Restore of int (* selector into the saved images *)

let near_boundaries lo hi =
  let open QCheck.Gen in
  let cb = Memdisk.chunk_blocks in
  map
    (fun b -> max lo (min hi b))
    (oneof
       [
         int_range (-2) 3;
         int_range (cb - 3) (cb + 3);
         int_range ((2 * cb) - 3) ((2 * cb) + 3);
         int_range (nb - 4) (nb + 3);
       ])

let op_gen =
  let open QCheck.Gen in
  let any = near_boundaries (-2) (nb + 3) in
  let inside = near_boundaries 0 (nb - 1) in
  frequency
    [
      (4, map (fun b -> Read b) any);
      (4, map (fun b -> Read_into b) any);
      (1, map (fun b -> Bad_read_into b) any);
      (5, map2 (fun b c -> Write (b, c)) any (int_bound 255));
      (3, map (fun b -> Write (b, 0)) any);
      (1, map (fun b -> Bad_write b) any);
      (1, return Sync);
      (2, map (fun b -> Peek b) inside);
      (2, map3 (fun b c l -> Poke (b, c, l)) inside (int_bound 255) (int_bound (bs + 40)));
      (1, map (fun b -> Arm_fail_read b) inside);
      (1, map (fun b -> Arm_fail_write b) inside);
      (1, return Clear_faults);
      (2, return Snapshot);
      (2, map (fun i -> Restore i) (int_bound 10));
    ]

let op_print = function
  | Read b -> Printf.sprintf "Read %d" b
  | Read_into b -> Printf.sprintf "Read_into %d" b
  | Bad_read_into b -> Printf.sprintf "Bad_read_into %d" b
  | Write (b, c) -> Printf.sprintf "Write (%d, %d)" b c
  | Bad_write b -> Printf.sprintf "Bad_write %d" b
  | Sync -> "Sync"
  | Peek b -> Printf.sprintf "Peek %d" b
  | Poke (b, c, l) -> Printf.sprintf "Poke (%d, %d, %d)" b c l
  | Arm_fail_read b -> Printf.sprintf "Arm_fail_read %d" b
  | Arm_fail_write b -> Printf.sprintf "Arm_fail_write %d" b
  | Clear_faults -> "Clear_faults"
  | Snapshot -> "Snapshot"
  | Restore i -> Printf.sprintf "Restore %d" i

let ops_arb =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map op_print l))
    QCheck.Gen.(list_size (int_range 20 120) op_gen)

let read_into_str dev b size =
  let buf = Bytes.create size in
  match dev.Dev.read_into b buf with
  | Ok () -> "ok:" ^ Digest.to_hex (Digest.bytes buf)
  | Error e -> "err:" ^ err_str e

(* One op through a Fault + Obs stack, as a comparable transcript line.
   Raw and image operations are the caller's. *)
let step dev inj ~raw = function
  | Read b -> res_str (dev.Dev.read b)
  | Read_into b -> read_into_str dev b bs
  | Bad_read_into b -> read_into_str dev b (bs - 1)
  | Write (b, c) -> unit_str (dev.Dev.write b (fill c))
  | Bad_write b -> unit_str (dev.Dev.write b (Bytes.create 7))
  | Sync -> unit_str (dev.Dev.sync ())
  | Arm_fail_read b ->
      ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read));
      "armed"
  | Arm_fail_write b ->
      ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_write));
      "armed"
  | Clear_faults ->
      Fault.disarm_all inj;
      "cleared"
  | (Peek _ | Poke _ | Snapshot | Restore _) as op ->
      raw op;
      "raw"

let stack d =
  let obs = Iron_obs.Obs.create () in
  let inj = Fault.create ~obs d in
  (obs, inj, Dev.observe obs (Fault.dev inj))

let prop_memdisk_equiv_reference =
  QCheck.Test.make ~name:"Memdisk = bytes reference" ~count:100
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let md = Memdisk.create ~params:(params nb seed) () in
      Memdisk.set_time_model md false;
      let r = reference nb in
      let obs_m, inj_m, dev_m = stack (Memdisk.dev md) in
      let obs_r, inj_r, dev_r = stack (reference_dev r) in
      (* Saved (image, reference copy) pairs; the blank volume first. *)
      let saved = ref [ (Memdisk.snapshot md, Array.map Bytes.copy r.blocks) ] in
      let same_block b = Bytes.equal (Memdisk.peek md b) r.blocks.(b) in
      let expect_same what =
        List.iter
          (fun b ->
            if not (same_block b) then
              QCheck.Test.fail_reportf "%s: block %d diverged" what b)
          (List.init nb Fun.id)
      in
      (* Raw and image operations act on the device and the reference
         directly, under the fault layer's feet. *)
      let raw = function
        | Peek b -> expect_same (Printf.sprintf "peek %d" b)
        | Poke (b, c, l) ->
            (* Partial raw write; both sides clamp to the block size. *)
            let data = Bytes.make l (Char.chr c) in
            Memdisk.poke md b data;
            Bytes.blit data 0 r.blocks.(b) 0 (min l bs)
        | Snapshot ->
            saved := !saved @ [ (Memdisk.snapshot md, Array.map Bytes.copy r.blocks) ];
            expect_same "snapshot"
        | Restore i ->
            let img, blocks = List.nth !saved (i mod List.length !saved) in
            Memdisk.restore md img;
            Array.iteri (fun b data -> Bytes.blit data 0 r.blocks.(b) 0 bs) blocks;
            r.reads <- 0;
            r.writes <- 0;
            r.syncs <- 0;
            expect_same "restore"
        | _ -> assert false
      in
      let counts_m () =
        let s = Memdisk.stats md in
        (s.Memdisk.reads, s.writes, s.syncs)
      in
      List.for_all
        (fun op ->
          let a = step dev_m inj_m ~raw op in
          let b = step dev_r inj_r ~raw:ignore op in
          if a <> b then
            QCheck.Test.fail_reportf "op %s: memdisk %s vs reference %s"
              (op_print op) a b
          else if counts_m () <> (r.reads, r.writes, r.syncs) then
            QCheck.Test.fail_reportf "op %s: counters diverged" (op_print op)
          else true)
        ops
      && (expect_same "final";
          true)
      && List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj_m)
         = List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj_r)
      && Iron_obs.Obs.jsonl_of_snapshot (Iron_obs.Obs.snapshot obs_m)
         = Iron_obs.Obs.jsonl_of_snapshot (Iron_obs.Obs.snapshot obs_r))

(* --- twin devices in different internal states --------------------------- *)

(* One logical volume held two ways must be indistinguishable from
   above: same transcripts, same statistics, seeks and clock after every
   op, same raw contents, same fault traces and metrics. [a] and [b]
   start over [start_a] and [start_b] (the first images [Restore] can
   return to); raw and image operations act on both devices at once;
   [after_op] runs on [a] between ops. *)
let stats_str d dev =
  let s = Memdisk.stats d in
  Printf.sprintf "r=%d w=%d s=%d seeks=%d ms=%.6f now=%.6f" s.Memdisk.reads
    s.writes s.syncs s.seeks s.elapsed_ms (dev.Dev.now ())

let same_behaviour ?(after_op = ignore) ?(arm = ignore) ~start:(start_a, start_b)
    a b ops =
  let obs_a, inj_a, dev_a = stack (Memdisk.dev a) in
  let obs_b, inj_b, dev_b = stack (Memdisk.dev b) in
  arm inj_a;
  arm inj_b;
  let saved = ref [ (start_a, start_b) ] in
  let same_block what blk =
    if not (Bytes.equal (Memdisk.peek a blk) (Memdisk.peek b blk)) then
      QCheck.Test.fail_reportf "%s: block %d diverged" what blk
  in
  let expect_same what =
    for blk = 0 to nb - 1 do
      same_block what blk
    done
  in
  let raw = function
    | Peek blk -> same_block "peek" blk
    | Poke (blk, c, l) ->
        let data = Bytes.make l (Char.chr c) in
        Memdisk.poke a blk data;
        Memdisk.poke b blk data
    | Snapshot ->
        saved := !saved @ [ (Memdisk.snapshot a, Memdisk.snapshot b) ];
        expect_same "snapshot"
    | Restore i ->
        let img_a, img_b = List.nth !saved (i mod List.length !saved) in
        Memdisk.restore a img_a;
        Memdisk.restore b img_b;
        expect_same "restore"
    | _ -> assert false
  in
  List.for_all
    (fun op ->
      let ta = step dev_a inj_a ~raw op in
      let tb = step dev_b inj_b ~raw:ignore op in
      after_op ();
      let sa = stats_str a dev_a and sb = stats_str b dev_b in
      if ta <> tb then
        QCheck.Test.fail_reportf "op %s: %s vs %s" (op_print op) ta tb
      else if sa <> sb then
        QCheck.Test.fail_reportf "op %s: stats %s vs %s" (op_print op) sa sb
      else true)
    ops
  && (expect_same "final";
      true)
  && List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj_a)
     = List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj_b)
  && Iron_obs.Obs.jsonl_of_snapshot (Iron_obs.Obs.snapshot obs_a)
     = Iron_obs.Obs.jsonl_of_snapshot (Iron_obs.Obs.snapshot obs_b)

(* --- disk.cow: the image discipline ------------------------------------ *)

(* Copy-on-write against a flat overlay: [cow] receives its contents as
   an image carried from another device and freezes after every op, so
   each write lands in a fresh overlay over a frozen image; [flat] holds
   the same contents as raw pokes in its overlay and freezes only on
   [Snapshot]. The timing model stays on. *)
let prop_cow_equiv_memdisk =
  QCheck.Test.make ~name:"Cow ≡ Memdisk under random ops" ~count:150
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let prng = Random.State.make [| seed |] in
      let prefill =
        List.init 40 (fun _ ->
            (Random.State.int prng nb, fill (1 + Random.State.int prng 255)))
      in
      let donor = Memdisk.create ~params:(params nb seed) () in
      let flat = Memdisk.create ~params:(params nb seed) () in
      List.iter
        (fun (blk, data) ->
          Memdisk.poke donor blk data;
          Memdisk.poke flat blk data)
        prefill;
      let img = Memdisk.snapshot donor in
      let cow = Memdisk.create ~params:(params nb seed) () in
      Memdisk.restore cow img;
      same_behaviour
        ~after_op:(fun () -> ignore (Memdisk.snapshot cow))
        ~start:(img, img) cow flat ops)

let small seed =
  let d = Memdisk.create ~params:(params 48 seed) () in
  (d, Memdisk.dev d)

let test_snapshot_is_frozen () =
  let d, dev = small 7 in
  Dev.write_exn dev 3 (fill 0xAA);
  let img = Memdisk.snapshot d in
  (* Writing after the freeze must not leak into the image. *)
  Dev.write_exn dev 3 (fill 0xBB);
  Memdisk.restore d img;
  check Alcotest.bytes "restore sees frozen bytes" (fill 0xAA)
    (Dev.read_exn dev 3);
  check Alcotest.int "restore resets stats" 0 (Memdisk.stats d).Memdisk.writes

let test_restore_is_o_dirty () =
  let d, dev = small 8 in
  let img = Memdisk.snapshot d in
  Dev.write_exn dev 1 (fill 1);
  Dev.write_exn dev 2 (fill 2);
  check Alcotest.int "two dirty blocks" 2 (Memdisk.dirty_count d);
  Memdisk.restore d img;
  check Alcotest.int "restore drops the overlay" 0 (Memdisk.dirty_count d);
  check Alcotest.bytes "block reverted" (fill 0) (Dev.read_exn dev 1)

let test_images_share_clean_blocks () =
  let d, dev = small 9 in
  Dev.write_exn dev 5 (fill 5);
  let a = Memdisk.snapshot d in
  Dev.write_exn dev 6 (fill 6);
  let b = Memdisk.snapshot d in
  (* Block 5 was clean between the freezes: physically shared. *)
  check Alcotest.bool "clean block shared between images" true
    (Memdisk.image_block a 5 == Memdisk.image_block b 5);
  check Alcotest.bool "dirty block not shared" false
    (Memdisk.image_block a 6 == Memdisk.image_block b 6)

let test_geometry_mismatch_raises () =
  let d, _ = small 10 in
  let img = Memdisk.blank_image ~block_size:bs ~num_blocks:96 in
  match Memdisk.restore d img with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_image_moves_between_devices () =
  (* The executor's prepare path: capture on one device, restore the
     image into a fresh one. *)
  let a, _ = small 11 in
  Memdisk.poke a 4 (fill 0x44);
  let img = Memdisk.snapshot a in
  let b, dev = small 11 in
  Memdisk.restore b img;
  check Alcotest.bytes "image carried across devices" (fill 0x44)
    (Dev.read_exn dev 4)

(* --- disk.sparse: the chunked footprint -------------------------------- *)

(* The zero-default footprint must be behaviourally invisible: a
   [sparse] device over the blank image (no chunk materialized, zero
   writes onto zero blocks stored nowhere) against a [dense] one whose
   image holds a private zero buffer for every block (so the same zero
   writes land in its overlay). *)
let sparse_and_dense seed =
  let dense = Memdisk.create ~params:(params nb seed) () in
  for blk = 0 to nb - 1 do
    Memdisk.poke dense blk (fill 0)
  done;
  let dense_img = Memdisk.snapshot dense in
  if Memdisk.image_blocks_touched dense_img <> nb then
    QCheck.Test.fail_report "dense image is not fully materialized";
  let sparse = Memdisk.create ~params:(params nb seed) () in
  let sparse_img = Memdisk.snapshot sparse in
  (* Identical initial conditions: head parked, clock and stats zeroed. *)
  Memdisk.restore dense dense_img;
  Memdisk.restore sparse sparse_img;
  (sparse, dense, (sparse_img, dense_img))

let prop_sparse_equiv_memdisk =
  QCheck.Test.make ~name:"Sparse ≡ Memdisk under random ops" ~count:150
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let sparse, dense, start = sparse_and_dense seed in
      same_behaviour ~start sparse dense ops)

(* Corrupting rules on top of failing ones, straddling the chunk
   boundaries the op generator aims at; time model off. *)
let arm_corrupting inj =
  let cb = Memdisk.chunk_blocks in
  List.iter
    (fun r -> ignore (Fault.arm inj r))
    [
      Fault.rule (Fault.Block 1) Fault.Fail_read;
      Fault.rule ~persistence:(Fault.Transient 2) (Fault.Block (cb - 1))
        (Fault.Corrupt (Fault.Noise 42));
      Fault.rule (Fault.Range (cb, cb + 2)) (Fault.Corrupt Fault.Byte_shift);
      Fault.rule (Fault.Block (2 * cb)) Fault.Fail_write;
    ]

let prop_sparse_equiv_through_fault_and_obs =
  QCheck.Test.make
    ~name:"Sparse ≡ Memdisk through Fault+Obs under armed rules" ~count:75
    QCheck.(pair (int_bound 1000) ops_arb)
    (fun (seed, ops) ->
      let sparse, dense, start = sparse_and_dense seed in
      Memdisk.set_time_model sparse false;
      Memdisk.set_time_model dense false;
      same_behaviour ~arm:arm_corrupting ~start sparse dense ops)

let test_chunked_snapshot_is_frozen () =
  let d = Memdisk.create ~params:(params nb 12) () in
  let dev = Memdisk.dev d in
  let cb = Memdisk.chunk_blocks in
  Dev.write_exn dev (cb - 1) (fill 1);
  Dev.write_exn dev cb (fill 2);
  let img = Memdisk.snapshot d in
  check Alcotest.int "one chunk per side of the boundary" 2
    (Memdisk.image_chunks_touched img);
  Dev.write_exn dev (cb - 1) (fill 3);
  Dev.write_exn dev cb (fill 4);
  Dev.write_exn dev (2 * cb) (fill 5);
  Memdisk.restore d img;
  check Alcotest.bytes "last block of chunk 0" (fill 1) (Dev.read_exn dev (cb - 1));
  check Alcotest.bytes "first block of chunk 1" (fill 2) (Dev.read_exn dev cb);
  check Alcotest.bytes "untouched chunk 2" (fill 0) (Dev.read_exn dev (2 * cb))

let test_zero_write_materializes_nothing () =
  let d = Memdisk.create ~params:(params nb 13) () in
  let dev = Memdisk.dev d in
  (* Zeroes over untouched blocks, as mkfs writes each empty group's
     bitmaps and inode table: charged, counted, but free. *)
  for b = 0 to nb - 1 do
    Dev.write_exn dev b (fill 0)
  done;
  check Alcotest.int "all writes counted" nb (Memdisk.stats d).Memdisk.writes;
  check Alcotest.int "nothing in the overlay" 0 (Memdisk.dirty_count d);
  let img = Memdisk.snapshot d in
  check Alcotest.int "no chunks materialized" 0 (Memdisk.image_chunks_touched img);
  (* A real write then materializes exactly one chunk, one block. *)
  Dev.write_exn dev 600 (fill 0x20);
  let img = Memdisk.snapshot d in
  check Alcotest.int "one chunk" 1 (Memdisk.image_chunks_touched img);
  check Alcotest.int "one block" 1 (Memdisk.image_blocks_touched img);
  (* Zeroes over a written block are stored like any other data. *)
  Dev.write_exn dev 600 (fill 0);
  check Alcotest.bytes "zeroed again" (fill 0) (Dev.read_exn dev 600)

let test_chunked_restore_drops_overlay () =
  let d = Memdisk.create ~params:(params nb 14) () in
  let dev = Memdisk.dev d in
  Dev.write_exn dev 5 (fill 5);
  let img = Memdisk.snapshot d in
  Dev.write_exn dev 700 (fill 7);
  Dev.write_exn dev (nb - 1) (fill 9);
  check Alcotest.int "two dirty blocks in two chunks" 2 (Memdisk.dirty_count d);
  Memdisk.restore d img;
  check Alcotest.int "restore drops the overlay" 0 (Memdisk.dirty_count d);
  check Alcotest.bytes "chunk 1 reverted" (fill 0) (Dev.read_exn dev 700);
  check Alcotest.bytes "chunk 2 reverted" (fill 0) (Dev.read_exn dev (nb - 1));
  check Alcotest.bool "clean snapshot is the image itself" true
    (Memdisk.snapshot d == img)

let test_block_size_mismatch_raises () =
  let d = Memdisk.create ~params:(params nb 15) () in
  let img = Memdisk.blank_image ~block_size:(2 * bs) ~num_blocks:nb in
  match Memdisk.restore d img with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let mkfs_ext3 dev =
  match Iron_vfs.Fs.mkfs Iron_ext3.Ext3.std dev with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "mkfs"

(* The traffic simulator's scaling claim: a 1 GiB logical volume
   (262144 blocks of 4 KiB) holds a full ext3 mkfs + mount + workload
   in memory proportional to the blocks actually touched — thousands,
   not a quarter million. *)
let test_large_volume_is_o_touched () =
  let params =
    { Memdisk.default_params with Memdisk.num_blocks = 262_144; seed = 5 }
  in
  let d = Memdisk.create ~params () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  mkfs_ext3 dev;
  (match Iron_vfs.Fs.mount Iron_ext3.Ext3.std dev with
  | Ok (Iron_vfs.Fs.Boxed ((module F), t)) ->
      (match F.creat t "/big" with
      | Ok fd ->
          ignore (F.write t fd ~off:0 (Bytes.make 65536 'x'));
          ignore (F.fsync t fd);
          ignore (F.close t fd)
      | Error _ -> Alcotest.fail "creat");
      ignore (F.unmount t)
  | Error _ -> Alcotest.fail "mount");
  let touched = Memdisk.image_blocks_touched (Memdisk.snapshot d) in
  check Alcotest.bool "some blocks touched" true (touched > 0);
  check Alcotest.bool
    (Printf.sprintf "touched (%d) well under 1/8 of the volume" touched)
    true
    (touched < 262_144 / 8)

(* The images the crash explorer and the fuzzer memoize hold only the
   blocks mkfs and the setup wrote something other than zeroes to. *)
let test_explore_base_is_sparse () =
  let params = { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 3 } in
  let img =
    Iron_crash.Explore.make_base ~params ~setup:(fun _ -> ()) Iron_ext3.Ext3.std
  in
  let touched = Memdisk.image_blocks_touched img in
  check Alcotest.bool
    (Printf.sprintf "touched (%d) well under 1/8 of 2048 blocks" touched)
    true
    (touched > 0 && touched < 2048 / 8)

let brands =
  [
    Iron_ext3.Ext3.std; Iron_ext3.Modes.writeback; Iron_ext3.Modes.data;
    Iron_reiserfs.Reiserfs.brand; Iron_jfs.Jfs.brand; Iron_ntfs.Ntfs.brand;
    Iron_ext3.Ext3.ixt3;
  ]

let formatted ?(wrap = Fun.id) ~num_blocks brand =
  let d =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks; seed = 6 }
      ()
  in
  Memdisk.set_time_model d false;
  (match Iron_vfs.Fs.mkfs brand (wrap (Memdisk.dev d)) with
  | Ok () -> ()
  | Error _ -> Alcotest.failf "%s: mkfs" (Iron_vfs.Fs.brand_name brand));
  d

(* mkfs formats a device that already reads zero and writes only what
   its layout defines: on a 1 GiB volume, at most 1/64 of its blocks. *)
let test_mkfs_writes_its_layout () =
  let num_blocks = 262_144 in
  List.iter
    (fun brand ->
      let writes =
        (Memdisk.stats (formatted ~num_blocks brand)).Memdisk.writes
      in
      check Alcotest.bool
        (Printf.sprintf "%s: %d writes within 1/64 of the volume"
           (Iron_vfs.Fs.brand_name brand) writes)
        true
        (writes <= num_blocks / 64))
    brands

(* A device reading zero at every block gains nothing from a zero
   write, so no brand's mkfs issues one, in any profile. *)
let test_mkfs_writes_no_zero_block () =
  List.iter
    (fun brand ->
      let zeros = ref 0 in
      let wrap (dev : Dev.t) =
        let zero = Bytes.make dev.Dev.block_size '\000' in
        let write b data =
          if Bytes.equal data zero then incr zeros;
          dev.Dev.write b data
        in
        { dev with Dev.write }
      in
      ignore (formatted ~wrap ~num_blocks:262_144 brand);
      check Alcotest.int
        (Printf.sprintf "%s: all-zero writes" (Iron_vfs.Fs.brand_name brand))
        0 !zeros)
    brands

(* Full ixt3's mkfs checksums every group's bitmap, inode bitmap and
   inode-table blocks, the empty ones through one digest of the zero
   block: each stored entry is the SHA-1 of the block as it reads. *)
let test_mkfs_checksums_group_metadata () =
  let module Layout = Iron_ext3.Layout in
  let num_blocks = 65_536 in
  let d = formatted ~num_blocks Iron_ext3.Ext3.ixt3 in
  let lay = Layout.compute ~block_size:4096 ~num_blocks in
  let entry b =
    let cb, off = Layout.cksum_location lay b in
    Bytes.sub_string (Memdisk.peek d cb) off 20
  in
  let sha1 b = Iron_util.Sha1.(to_raw (digest (Memdisk.peek d b))) in
  for g = 0 to lay.Layout.ngroups - 1 do
    let blocks =
      Layout.bitmap_block lay g
      :: Layout.ibitmap_block lay g
      :: List.init lay.Layout.itable_blocks (fun i ->
             Layout.itable_block lay g + i)
    in
    List.iter
      (fun b ->
        if entry b <> sha1 b then
          Alcotest.failf "group %d block %d: checksum entry is not its SHA-1"
            g b)
      blocks
  done

(* --- read_into = read through the wrapper stack ------------------------ *)

(* Twin stacks over identical content and identical fault rules; one is
   driven with [read], the other with [read_into]. Everything
   observable — data, errors, the injector's trace, its counters, the
   metrics registry — must be indistinguishable. *)

let random_disk seed salt =
  let md = Memdisk.create ~params:(params 48 seed) () in
  Memdisk.set_time_model md false;
  let prng = Iron_util.Prng.create (seed lxor salt) in
  for b = 0 to 47 do
    let buf = Bytes.create bs in
    Iron_util.Prng.fill_bytes prng buf;
    Memdisk.poke md b buf
  done;
  md

let build_stack seed =
  let obs, inj, dev = stack (Memdisk.dev (random_disk seed 0xC0FFEE)) in
  ignore (Fault.arm inj (Fault.rule (Fault.Block 3) Fault.Fail_read));
  ignore
    (Fault.arm inj
       (Fault.rule
          ~persistence:(Fault.Transient 2)
          (Fault.Block 5)
          (Fault.Corrupt (Fault.Noise 42))));
  ignore
    (Fault.arm inj (Fault.rule (Fault.Range (9, 11)) (Fault.Corrupt Fault.Byte_shift)));
  (obs, inj, dev)

let test_read_into_equiv_through_fault_and_obs () =
  let obs_a, inj_a, dev_a = build_stack 21 in
  let obs_b, inj_b, dev_b = build_stack 21 in
  (* Every block twice, so the Transient rule runs out on both sides at
     the same access. *)
  List.iter
    (fun b ->
      check Alcotest.string (Printf.sprintf "block %d" b)
        (res_str (dev_a.Dev.read b))
        (read_into_str dev_b b bs))
    (List.init 96 (fun i -> i mod 48));
  check
    Alcotest.(list string)
    "identical fault traces"
    (List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj_a))
    (List.map (Format.asprintf "%a" Fault.pp_event) (Fault.trace inj_b));
  check Alcotest.string "identical metrics"
    (Iron_obs.Obs.jsonl_of_snapshot (Iron_obs.Obs.snapshot obs_a))
    (Iron_obs.Obs.jsonl_of_snapshot (Iron_obs.Obs.snapshot obs_b))

(* Writes copy: once a write returns, its buffer is the caller's again.
   Journal recovery counts on this when it hands arena buffers back
   after replaying them home. Through Memdisk, a recording Wlog, the
   fault injector and the observation layer, a buffer scribbled on or
   reused for the next block's write after the call leaves neither the
   block nor the write log changed. *)
let test_writes_copy_through_the_stack () =
  let md = random_disk 5 0x5EED in
  let log = Iron_crash.Wlog.create (Memdisk.dev md) in
  Iron_crash.Wlog.set_recording log true;
  let _, _, dev = stack (Iron_crash.Wlog.dev log) in
  let buf = Bytes.create bs in
  let image b = Bytes.make bs (Char.chr (65 + b)) in
  for b = 0 to 7 do
    Bytes.blit (image b) 0 buf 0 bs;
    (match dev.Dev.write b buf with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "write");
    Bytes.fill buf 0 bs 'x'
  done;
  for b = 0 to 7 do
    check Alcotest.string (Printf.sprintf "block %d" b)
      (res_str (Ok (image b)))
      (read_into_str dev b bs)
  done;
  Array.iteri
    (fun i (e : Iron_crash.Wlog.entry) ->
      check Alcotest.bytes (Printf.sprintf "log entry %d" i) (image i)
        e.Iron_crash.Wlog.w_data)
    (Iron_crash.Wlog.entries log)

let suites =
  [
    ("disk.image", [ qtest prop_memdisk_equiv_reference ]);
    ( "disk.cow",
      [
        Alcotest.test_case "snapshot freezes the image" `Quick
          test_snapshot_is_frozen;
        Alcotest.test_case "restore drops only the overlay" `Quick
          test_restore_is_o_dirty;
        Alcotest.test_case "images share clean blocks" `Quick
          test_images_share_clean_blocks;
        Alcotest.test_case "geometry mismatch raises" `Quick
          test_geometry_mismatch_raises;
        Alcotest.test_case "memdisk snapshot overlays another device" `Quick
          test_image_moves_between_devices;
        qtest prop_cow_equiv_memdisk;
      ] );
    ( "disk.sparse",
      [
        Alcotest.test_case "snapshot freezes the image" `Quick
          test_chunked_snapshot_is_frozen;
        Alcotest.test_case "zero writes materialize nothing" `Quick
          test_zero_write_materializes_nothing;
        Alcotest.test_case "restore drops only the overlay" `Quick
          test_chunked_restore_drops_overlay;
        Alcotest.test_case "geometry mismatch raises" `Quick
          test_block_size_mismatch_raises;
        Alcotest.test_case "large volume is O(touched)" `Quick
          test_large_volume_is_o_touched;
        Alcotest.test_case "explore base image is sparse" `Quick
          test_explore_base_is_sparse;
        Alcotest.test_case "mkfs writes only its layout" `Quick
          test_mkfs_writes_its_layout;
        Alcotest.test_case "mkfs checksums empty group metadata" `Quick
          test_mkfs_checksums_group_metadata;
        Alcotest.test_case "mkfs writes no all-zero block" `Quick
          test_mkfs_writes_no_zero_block;
        qtest prop_sparse_equiv_memdisk;
        qtest prop_sparse_equiv_through_fault_and_obs;
      ] );
    ( "disk.read_into",
      [
        Alcotest.test_case "read_into ≡ read through Fault+Obs" `Quick
          test_read_into_equiv_through_fault_and_obs;
        Alcotest.test_case "writes copy through Memdisk+Wlog+Fault+Obs" `Quick
          test_writes_copy_through_the_stack;
      ] );
  ]
