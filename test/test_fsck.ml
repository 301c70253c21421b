(* Tests for the offline checker/repairer (RRepair, §3.3). *)

open Iron_disk
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Fsck = Iron_ext3.Fsck
module Layout = Iron_ext3.Layout
module Inode = Iron_ext3.Inode
module Fault = Iron_fault.Fault
module Codec = Iron_util.Codec
module Prng = Iron_util.Prng

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errno.to_string e)

let built () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ext3.Ext3.std dev);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ext3.Ext3.std dev) in
  let fd = ok (F.creat t "/file") in
  ignore (ok (F.write t fd ~off:0 (Bytes.make 20000 'f')));
  ok (F.close t fd);
  ok (F.mkdir t "/dir");
  let fd = ok (F.creat t "/dir/nested") in
  ignore (ok (F.write t fd ~off:0 (Bytes.of_string "n")));
  ok (F.close t fd);
  ok (F.unmount t);
  (d, dev)

let test_clean_volume_is_clean () =
  let _, dev = built () in
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "clean" true r.Fsck.clean;
  check Alcotest.int "no findings" 0 (List.length r.Fsck.findings)

let test_detects_and_repairs_leak () =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let bb = Layout.bitmap_block lay 2 in
  let buf = Memdisk.peek d bb in
  Bytes.set buf 0 '\x0F' (* four stray bits *);
  Memdisk.poke d bb buf;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "still 'clean' (leaks are warnings)" true r.Fsck.clean;
  check Alcotest.int "four leaks found" 4 (List.length r.Fsck.findings);
  let r = ok (Fsck.run ~repair:true dev) in
  check Alcotest.bool "repaired" true
    (List.for_all (fun f -> f.Fsck.repaired) r.Fsck.findings);
  let r = ok (Fsck.run dev) in
  check Alcotest.int "clean after repair" 0 (List.length r.Fsck.findings)

let test_detects_missing_allocation () =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  (* Clear the whole group-0 bitmap: every used block becomes an error. *)
  let bb = Layout.bitmap_block lay 0 in
  Memdisk.poke d bb (Bytes.make 4096 '\000');
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "not clean" false r.Fsck.clean;
  let r = ok (Fsck.run ~repair:true dev) in
  ignore r;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "clean after repair" true r.Fsck.clean

let test_detects_dangling_dirent () =
  let d, dev = built () in
  (* Kill /dir/nested's inode behind the directory's back. *)
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let itable = List.filter (fun b -> cls b = "inode") (List.init 2048 Fun.id) in
  let victim_block = List.hd itable in
  let buf = Memdisk.peek d victim_block in
  (* Find the nested file's slot: the last allocated non-directory. *)
  let last_file = ref (-1) in
  for slot = 0 to (4096 / 128) - 1 do
    let i = Inode.decode lay buf (slot * 128) in
    if i.Inode.kind = Inode.Regular then last_file := slot
  done;
  check Alcotest.bool "found a file slot" true (!last_file >= 0);
  Inode.encode lay (Inode.empty lay) buf (!last_file * 128);
  Memdisk.poke d victim_block buf;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "dangling entry reported" true
    (List.exists
       (fun f ->
         let m = f.Fsck.message in
         let rec find i =
           i + 4 <= String.length m && (String.sub m i 4 = "dead" || find (i + 1))
         in
         find 0)
       r.Fsck.findings)

let test_detects_wrong_linkcount () =
  let d, dev = built () in
  let lay = Iron_ext3.Ext3.layout_of_dev dev in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let itable = List.hd (List.filter (fun b -> cls b = "inode") (List.init 2048 Fun.id)) in
  let buf = Memdisk.peek d itable in
  let fixed = ref false in
  for slot = 0 to (4096 / 128) - 1 do
    let i = Inode.decode lay buf (slot * 128) in
    if i.Inode.kind = Inode.Regular && not !fixed then begin
      Inode.encode lay { i with Inode.links = 9 } buf (slot * 128);
      fixed := true
    end
  done;
  Memdisk.poke d itable buf;
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "link count error" false r.Fsck.clean;
  let _ = ok (Fsck.run ~repair:true dev) in
  let r = ok (Fsck.run dev) in
  check Alcotest.bool "clean after repair" true r.Fsck.clean

let test_works_on_ixt3_volumes () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ixt3.Ixt3.full dev);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ixt3.Ixt3.full dev) in
  let fd = ok (F.creat t "/p") in
  ignore (ok (F.write t fd ~off:0 (Bytes.make 9000 'p')));
  ok (F.close t fd);
  ok (F.unmount t);
  let r = ok (Fsck.run dev) in
  (* Parity blocks are reachable through the inode, so an ixt3 volume
     checks clean too. *)
  check Alcotest.bool "ixt3 volume clean" true r.Fsck.clean;
  check Alcotest.int "no findings" 0 (List.length r.Fsck.findings)

(* --- hostile superblock geometry ---------------------------------------- *)

(* Superblock fields: magic @0, block_size @4, num_blocks @8, state @12,
   mount_count @16, free_blocks @20. *)
let with_superblock d f =
  let buf = Memdisk.peek d 0 in
  f buf;
  Memdisk.poke d 0 buf

let expect_euclean what = function
  | Error Errno.EUCLEAN -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e -> Alcotest.failf "%s: expected EUCLEAN, got %s" what (Errno.to_string e)

let test_hostile_geometry () =
  let hostile =
    [
      ( "too large for one-block bitmaps",
        fun buf -> Codec.write_u32 buf 8 0x7FFFFFFF );
      ( "too small for one group",
        fun buf ->
          Codec.write_u32 buf 8 64;
          Codec.write_u32 buf 20 0 );
    ]
  in
  List.iter
    (fun (what, corrupt) ->
      let d, dev = built () in
      with_superblock d corrupt;
      expect_euclean ("fsck, " ^ what) (Fsck.run dev);
      expect_euclean ("mount, " ^ what) (Fs.mount Iron_ext3.Ext3.std dev))
    hostile;
  (* A block size other than the device's would have fsck index past
     every block it reads. *)
  let d, dev = built () in
  with_superblock d (fun buf -> Codec.write_u32 buf 4 8192);
  expect_euclean "fsck, block size 8192 on a 4096-byte device" (Fsck.run dev)

let test_hostile_geometry_ixt3_uses_copy () =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs Iron_ixt3.Ixt3.full dev);
  with_superblock d (fun buf -> Codec.write_u32 buf 8 0x7FFFFFFF);
  (* ixt3 treats a primary with no layout like any corrupt superblock
     and mounts from a per-group copy. *)
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Iron_ixt3.Ixt3.full dev) in
  check Alcotest.bool "recovered from a copy" true
    (List.exists
       (fun (e : Iron_vfs.Klog.entry) ->
         let m = e.Iron_vfs.Klog.message in
         String.length m >= 10 && String.sub m 0 10 = "superblock")
       (Iron_vfs.Klog.entries (F.klog t)));
  ok (F.unmount t)

(* --- differential: Fsck against the reference checker ------------------ *)

(* A post-workload volume: the standard fixture plus a delete, a rename,
   a hard link, a truncate and an rmdir, so the image holds single and
   double indirect trees, nested directories, a symlink and freed
   blocks (and, on ixt3, a populated replica map). *)
let workload_image brand =
  let d = Memdisk.create () in
  Memdisk.set_time_model d false;
  let dev = Memdisk.dev d in
  ok (Fs.mkfs brand dev);
  let (Fs.Boxed ((module F), t) as fs) = ok (Fs.mount brand dev) in
  ok (Iron_core.Workload.fixture fs);
  ok (F.unlink t "/del");
  ok (F.rename t "/ren" "/d1/renamed");
  ok (F.link t "/tolink" "/d1/d2/hard");
  ok (F.truncate t "/trunc" 5000);
  ok (F.rmdir t "/deldir");
  ok (F.unmount t);
  (d, Memdisk.snapshot d)

type outcome = {
  result : (([ `Error | `Warning ] * string * bool) list * bool, Errno.t) result;
  trace : Fault.event list;
  written : (int * bytes) list;  (** every block written, as it ended up *)
}

let new_checker ~repair dev =
  Result.map
    (fun r ->
      ( List.map
          (fun f -> (f.Fsck.severity, f.Fsck.message, f.Fsck.repaired))
          r.Fsck.findings,
        r.Fsck.clean ))
    (Fsck.run ~repair dev)

let ref_checker ~repair dev =
  Result.map
    (fun r ->
      ( List.map
          (fun f -> (f.Fsck_ref.severity, f.Fsck_ref.message, f.Fsck_ref.repaired))
          r.Fsck_ref.findings,
        r.Fsck_ref.clean ))
    (Fsck_ref.run ~repair dev)

(* One checker run on [disk] reset to [image], behind a fresh injector
   armed with [rules]. *)
let run_checker disk image ~rules ~repair checker =
  Memdisk.restore disk image;
  let inj = Fault.create (Memdisk.dev disk) in
  List.iter (fun r -> ignore (Fault.arm inj r)) rules;
  let result = checker ~repair (Fault.dev inj) in
  let trace = Fault.trace inj in
  let written =
    List.filter_map
      (fun e ->
        if e.Fault.dir = Fault.Write then
          Some (e.Fault.block, Memdisk.peek disk e.Fault.block)
        else None)
      trace
  in
  { result; trace; written }

let render_result = function
  | Error e -> "error " ^ Errno.to_string e
  | Ok (findings, clean) ->
      String.concat "\n"
        (List.map
           (fun (sev, msg, repaired) ->
             Printf.sprintf "%s %s%s"
               (match sev with `Error -> "ERROR" | `Warning -> "warn")
               msg
               (if repaired then " [repaired]" else ""))
           findings
        @ [ Printf.sprintf "clean=%b" clean ])

(* Both checkers, with and without repair, on identical devices: same
   findings in the same order, same [clean], same device requests, and
   the same bytes in every block a repair wrote. *)
let same_as_reference (d_new, d_ref) ~what ?(rules = []) image =
  List.iter
    (fun repair ->
      let a = run_checker d_new image ~rules ~repair new_checker in
      let b = run_checker d_ref image ~rules ~repair ref_checker in
      let what = Printf.sprintf "%s, repair=%b" what repair in
      check Alcotest.string (what ^ ": findings") (render_result b.result)
        (render_result a.result);
      check Alcotest.int (what ^ ": requests") (List.length b.trace)
        (List.length a.trace);
      List.iter2
        (fun x y ->
          if x <> y then
            Alcotest.failf "%s: request %d differs: %s vs reference %s" what
              x.Fault.seq
              (Format.asprintf "%a" Fault.pp_event x)
              (Format.asprintf "%a" Fault.pp_event y))
        a.trace b.trace;
      check Alcotest.bool (what ^ ": repaired blocks") true (a.written = b.written))
    [ false; true ]

let differential_brands =
  [ ("ext3", Iron_ext3.Ext3.std); ("ixt3", Iron_ixt3.Ixt3.full) ]

(* The blocks of each corrupted class, found the way the fingerprinter
   finds them (the gray-box classifier), plus the replica map from the
   layout. *)
let targets d =
  let lay = Iron_ext3.Ext3.layout_of_dev (Memdisk.dev d) in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let all = List.init lay.Layout.num_blocks Fun.id in
  let of_class c = List.filter (fun b -> cls b = c) all in
  ( lay,
    [
      ("inode", of_class "inode");
      ("bitmap", of_class "bitmap");
      ("i-bitmap", of_class "i-bitmap");
      ("indirect", of_class "indirect");
      ("dir", of_class "dir");
      ("rmap", List.init lay.Layout.rmap_blocks (fun m -> lay.Layout.rmap_start + m));
    ] )

(* A pointer-ish value: a hole, an in-range block, one past the end, or
   garbage. *)
let any_value rng lay =
  match Prng.int rng 5 with
  | 0 -> 0
  | 1 | 2 -> Prng.int rng lay.Layout.num_blocks
  | 3 -> lay.Layout.num_blocks + Prng.int rng 16
  | _ -> 0xFFFFFFFF

(* A seeded byte corruption: one byte of the part of the block the
   class actually uses gets a random value. *)
let corrupt_byte rng lay cls buf =
  let used =
    match cls with
    | "bitmap" -> (Layout.data_blocks_per_group lay + 7) / 8
    | "i-bitmap" -> (lay.Layout.inodes_per_group + 7) / 8
    | "indirect" -> lay.Layout.ptrs_per_block * 4
    | "dir" -> 256
    | _ -> Bytes.length buf
  in
  Bytes.set buf (Prng.int rng used) (Prng.byte rng)

(* A seeded field corruption, aware of the block's format. *)
let corrupt_field rng lay cls buf =
  match cls with
  | "inode" ->
      let slots = Bytes.length buf / lay.Layout.inode_size in
      let live =
        List.filter
          (fun i -> Bytes.get buf (i * lay.Layout.inode_size) <> '\000')
          (List.init slots Fun.id)
      in
      let slot =
        if live <> [] && Prng.bool rng then Prng.pick rng live else Prng.int rng slots
      in
      let off = slot * lay.Layout.inode_size in
      (* kind, links, size, a direct pointer, ind, dind, parity *)
      (match Prng.int rng 7 with
      | 0 -> Bytes.set buf off (Prng.byte rng)
      | 1 -> Bytes.set_uint16_le buf (off + 2) (Prng.int rng 4)
      | 2 -> Codec.write_u32 buf (off + 12) (Prng.int rng 0x1000000)
      | 3 -> Codec.write_u32 buf (off + 32 + (4 * Prng.int rng 4)) (any_value rng lay)
      | 4 -> Codec.write_u32 buf (off + 48) (any_value rng lay)
      | 5 -> Codec.write_u32 buf (off + 52) (any_value rng lay)
      | _ -> Codec.write_u32 buf (off + 60) (any_value rng lay))
  | "bitmap" | "i-bitmap" ->
      let bits =
        if cls = "bitmap" then Layout.data_blocks_per_group lay
        else lay.Layout.inodes_per_group
      in
      let i = Prng.int rng bits in
      let v = Char.code (Bytes.get buf (i / 8)) lxor (1 lsl (i mod 8)) in
      Bytes.set buf (i / 8) (Char.chr v)
  | "indirect" ->
      Codec.write_u32 buf (4 * Prng.int rng lay.Layout.ptrs_per_block) (any_value rng lay)
  | "dir" -> (
      match Iron_ext3.Dirent.decode buf with
      | [] -> ()
      | entries ->
          let k = Prng.int rng (List.length entries) in
          let ino = Prng.int rng (Layout.total_inodes lay + 8) in
          ignore
            (Iron_ext3.Dirent.encode buf
               (List.mapi (fun j (n, i) -> if j = k then (n, ino) else (n, i)) entries)))
  | _ ->
      (* rmap: one block's shadow slot *)
      Codec.write_u32 buf (4 * Prng.int rng (Bytes.length buf / 4)) (any_value rng lay)

let devices () =
  let mk () =
    let d = Memdisk.create () in
    Memdisk.set_time_model d false;
    d
  in
  (mk (), mk ())

let test_differential_corruptions () =
  let pair = devices () in
  List.iter
    (fun (name, brand) ->
      let d, image = workload_image brand in
      same_as_reference pair ~what:(name ^ " clean") image;
      let lay, classes = targets d in
      let rng = Prng.create 0x5eed in
      List.iter
        (fun (cls, blocks) ->
          check Alcotest.bool (Printf.sprintf "%s has %s blocks" name cls) true
            (blocks <> []);
          for k = 0 to 11 do
            let b = Prng.pick rng blocks in
            let field = k mod 2 = 1 in
            Memdisk.restore d image;
            let buf = Memdisk.peek d b in
            (if field then corrupt_field rng lay cls buf
             else corrupt_byte rng lay cls buf);
            Memdisk.poke d b buf;
            let corrupted = Memdisk.snapshot d in
            same_as_reference pair corrupted
              ~what:
                (Printf.sprintf "%s, %s %s corruption #%d of block %d" name cls
                   (if field then "field" else "byte")
                   k b)
          done)
        classes)
    differential_brands

let test_differential_read_faults () =
  let pair = devices () in
  List.iter
    (fun (name, brand) ->
      let d, image = workload_image brand in
      let lay, _ = targets d in
      (* Group 0's first table block holds the root and the fixture's
         inodes; the last group's is empty. *)
      let busy = Layout.itable_block lay 0 in
      let idle = Layout.itable_block lay (lay.Layout.ngroups - 1) + 3 in
      let rule ?persistence b =
        Fault.rule ?persistence (Fault.Block b) Fault.Fail_read
      in
      let cases =
        [ ("sticky", [ rule busy ]); ("sticky, idle block", [ rule idle ]) ]
        @ List.map
            (fun n ->
              (Printf.sprintf "transient %d" n, [ rule ~persistence:(Fault.Transient n) busy ]))
            [ 1; 2; 3; 5; 31; 32; 33; 40 ]
        @ [
            ( "transient 4 on two blocks",
              [
                rule ~persistence:(Fault.Transient 4) busy;
                rule ~persistence:(Fault.Transient 4) (busy + 1);
              ] );
            ( "transient 2, idle block",
              [ rule ~persistence:(Fault.Transient 2) idle ] );
          ]
      in
      List.iter
        (fun (what, rules) ->
          same_as_reference pair image ~rules
            ~what:(Printf.sprintf "%s, %s read failure" name what))
        cases)
    differential_brands

let suites =
  [
    ( "ext3.fsck",
      [
        Alcotest.test_case "clean volume" `Quick test_clean_volume_is_clean;
        Alcotest.test_case "leak detect+repair" `Quick test_detects_and_repairs_leak;
        Alcotest.test_case "missing allocation" `Quick test_detects_missing_allocation;
        Alcotest.test_case "dangling directory entry" `Quick test_detects_dangling_dirent;
        Alcotest.test_case "wrong link count" `Quick test_detects_wrong_linkcount;
        Alcotest.test_case "ixt3 volumes" `Quick test_works_on_ixt3_volumes;
        Alcotest.test_case "hostile geometry is EUCLEAN" `Quick test_hostile_geometry;
        Alcotest.test_case "hostile geometry: ixt3 mounts a copy" `Quick
          test_hostile_geometry_ixt3_uses_copy;
        Alcotest.test_case "reference: corruptions" `Quick
          test_differential_corruptions;
        Alcotest.test_case "reference: read faults" `Quick
          test_differential_read_faults;
      ] );
  ]
