(* Property tests for the ext3 on-disk codecs: layout arithmetic,
   inodes, directory blocks and journal records. Corruption detection
   only works if serialization is exact, so these are load-bearing. *)

module Layout = Iron_ext3.Layout
module Inode = Iron_ext3.Inode
module Dirent = Iron_ext3.Dirent
module Jrec = Iron_jrnl.Jrec
module Sb = Iron_ext3.Sb

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let lay = Layout.compute ~block_size:4096 ~num_blocks:2048

(* --- layout ------------------------------------------------------------ *)

let test_layout_regions_disjoint () =
  (* Every block belongs to at most one region. *)
  let regions b =
    let inside lo len = b >= lo && b < lo + len in
    List.filter Fun.id
      [
        b = 0;
        b = 1;
        inside lay.Layout.journal_start lay.Layout.journal_len;
        inside lay.Layout.groups_start
          (lay.Layout.ngroups * lay.Layout.blocks_per_group);
        inside lay.Layout.cksum_start lay.Layout.cksum_blocks;
        inside lay.Layout.rlog_start lay.Layout.rlog_blocks;
        inside lay.Layout.rmap_start lay.Layout.rmap_blocks;
        inside lay.Layout.replica_start lay.Layout.replica_blocks;
      ]
  in
  for b = 0 to lay.Layout.num_blocks - 1 do
    if List.length (regions b) > 1 then
      Alcotest.failf "block %d is in %d regions" b (List.length (regions b))
  done

let test_layout_replica_targets_have_slots () =
  List.iteri
    (fun i target ->
      match Layout.replica_of lay target with
      | Some r -> check Alcotest.int "slot order" (lay.Layout.replica_start + i) r
      | None -> Alcotest.failf "target %d has no slot" target)
    (Layout.replica_targets lay)

(* [replica_of] computes the slot; [replica_targets] stays its spec.
   Every block from -1 to [num_blocks] must map to its index in that
   list, or to nothing. *)
let test_layout_replica_of_matches_targets () =
  let geometries =
    [
      ("2048 x 4 KiB", 4096, 2048, false);
      ("traffic's 65536 x 4 KiB", 4096, 65536, true);
      ("4096 x 1 KiB", 1024, 4096, false);
      ("odd: 3001 x 4 KiB", 4096, 3001, false);
      ("odd, widened: 16385 x 1 KiB", 1024, 16385, true);
      ("widened eightfold: 262144 x 4 KiB", 4096, 262144, true);
    ]
  in
  List.iter
    (fun (what, block_size, num_blocks, widened) ->
      let lay = Layout.compute ~block_size ~num_blocks in
      check Alcotest.bool (what ^ ": groups widened") widened
        (lay.Layout.blocks_per_group > 256);
      let index = Hashtbl.create 1024 in
      List.iteri
        (fun i b -> if not (Hashtbl.mem index b) then Hashtbl.add index b i)
        (Layout.replica_targets lay);
      for b = -1 to num_blocks do
        let want =
          Option.map (fun i -> lay.Layout.replica_start + i) (Hashtbl.find_opt index b)
        in
        if Layout.replica_of lay b <> want then
          Alcotest.failf "%s: block %d maps to %s, want %s" what b
            (match Layout.replica_of lay b with Some r -> string_of_int r | None -> "none")
            (match want with Some r -> string_of_int r | None -> "none")
      done)
    geometries

let prop_inode_location_bijective =
  QCheck.Test.make ~name:"inode locations never collide" ~count:300
    QCheck.(pair (int_range 1 896) (int_range 1 896))
    (fun (a, b) ->
      a = b || Layout.inode_location lay a <> Layout.inode_location lay b)

let prop_inode_location_in_itable =
  QCheck.Test.make ~name:"inode locations live in inode tables" ~count:300
    QCheck.(int_range 1 896)
    (fun ino ->
      let blk, off = Layout.inode_location lay ino in
      let g = Layout.group_of_inode lay ino in
      blk >= Layout.itable_block lay g
      && blk < Layout.itable_block lay g + lay.Layout.itable_blocks
      && off mod lay.Layout.inode_size = 0
      && off < lay.Layout.block_size)

let prop_cksum_locations_cover =
  QCheck.Test.make ~name:"checksum slots stay in the checksum region" ~count:300
    QCheck.(int_bound 2047)
    (fun b ->
      let cb, off = Layout.cksum_location lay b in
      cb >= lay.Layout.cksum_start
      && cb < lay.Layout.cksum_start + lay.Layout.cksum_blocks
      && off + 20 <= lay.Layout.block_size)

(* --- superblock -------------------------------------------------------- *)

let test_sb_roundtrip () =
  let sb =
    {
      Sb.block_size = 4096;
      num_blocks = 2048;
      state = Sb.Dirty;
      mount_count = 7;
      free_blocks = 1234;
      free_inodes = 555;
      features = 0b10110;
    }
  in
  let buf = Bytes.make 4096 '\000' in
  Sb.encode sb buf;
  match Sb.decode buf with
  | Ok sb' -> check Alcotest.bool "equal" true (sb = sb')
  | Error _ -> Alcotest.fail "decode failed"

let test_sb_rejects_bad_magic () =
  let buf = Bytes.make 4096 '\xAB' in
  match Sb.decode buf with
  | Error Iron_vfs.Errno.EUCLEAN -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> Alcotest.failf "expected EUCLEAN, got %s" (Iron_vfs.Errno.to_string e)

let test_sb_rejects_impossible_geometry () =
  let sb =
    {
      Sb.block_size = 4096;
      num_blocks = 2048;
      state = Sb.Clean;
      mount_count = 0;
      free_blocks = 999999 (* more free than total *);
      free_inodes = 0;
      features = 0;
    }
  in
  let buf = Bytes.make 4096 '\000' in
  Sb.encode sb buf;
  match Sb.decode buf with
  | Error Iron_vfs.Errno.EUCLEAN -> ()
  | Ok _ -> Alcotest.fail "impossible geometry accepted"
  | Error _ -> ()

(* --- inode ------------------------------------------------------------- *)

let inode_gen =
  QCheck.Gen.(
    let* kindc = int_range 0 3 in
    let* links = int_range 0 100 in
    let* size = int_range 0 10_000_000 in
    let* perms = int_range 0 0o777 in
    let* direct = array_size (return 4) (int_range 0 2047) in
    let* ind = int_range 0 2047 in
    let* target_len = int_range 0 40 in
    let* target = string_size ~gen:(char_range 'a' 'z') (return target_len) in
    return (kindc, links, size, perms, direct, ind, target))

let prop_inode_roundtrip =
  QCheck.Test.make ~name:"inode encode/decode roundtrip" ~count:300
    (QCheck.make inode_gen)
    (fun (kindc, links, size, perms, direct, ind, target) ->
      let kind =
        match kindc with
        | 0 -> Inode.Free
        | 1 -> Inode.Regular
        | 2 -> Inode.Directory
        | _ -> Inode.Symlink
      in
      let i =
        {
          (Inode.empty lay) with
          Inode.kind;
          links;
          size;
          perms;
          direct;
          ind;
          symlink_target = target;
        }
      in
      let buf = Bytes.make 4096 '\000' in
      Inode.encode lay i buf 256;
      let i' = Inode.decode lay buf 256 in
      i = i')

let test_inode_decode_total_on_garbage () =
  (* Any bytes decode to some inode; corruption must not raise. *)
  let rng = Iron_util.Prng.create 5 in
  for _ = 1 to 50 do
    let buf = Bytes.create 4096 in
    Iron_util.Prng.fill_bytes rng buf;
    ignore (Inode.decode lay buf 0)
  done

let test_inode_slots_independent () =
  let buf = Bytes.make 4096 '\000' in
  let a = { (Inode.empty lay) with Inode.kind = Inode.Regular; size = 1 } in
  let b = { (Inode.empty lay) with Inode.kind = Inode.Directory; size = 2 } in
  Inode.encode lay a buf 0;
  Inode.encode lay b buf 128;
  check Alcotest.bool "slot 0" true (Inode.decode lay buf 0 = a);
  check Alcotest.bool "slot 1" true (Inode.decode lay buf 128 = b)

(* --- directory blocks --------------------------------------------------- *)

let prop_dirent_roundtrip =
  QCheck.Test.make ~name:"directory block roundtrip" ~count:200
    QCheck.(
      small_list
        (pair (string_gen_of_size (Gen.int_range 1 20) (Gen.char_range 'a' 'z'))
           (int_range 1 100000)))
    (fun entries ->
      (* Names must be unique for assoc-style comparison. *)
      let entries =
        List.mapi (fun i (n, ino) -> (Printf.sprintf "%s%d" n i, ino)) entries
      in
      let buf = Bytes.make 4096 '\000' in
      if Dirent.fits 4096 entries then (
        ignore (Dirent.encode buf entries);
        Dirent.decode buf = entries)
      else true)

let test_dirent_decode_garbage_safe () =
  let rng = Iron_util.Prng.create 15 in
  for _ = 1 to 50 do
    let buf = Bytes.create 4096 in
    Iron_util.Prng.fill_bytes rng buf;
    ignore (Dirent.decode buf)
  done

let test_dirent_overflow_reports () =
  let big = List.init 400 (fun i -> (String.make 200 'n' ^ string_of_int i, i + 1)) in
  let buf = Bytes.make 4096 '\000' in
  check Alcotest.bool "does not fit" false (Dirent.fits 4096 big);
  check Alcotest.bool "encode reports truncation" false (Dirent.encode buf big)

(* --- journal records ----------------------------------------------------- *)

let jbd = Jrec.jbd

let test_jsuper_roundtrip () =
  let buf = Bytes.make 4096 '\000' in
  Jrec.encode_jsuper jbd { Jrec.sequence = 42; start = 17 } buf;
  check Alcotest.bool "roundtrip" true
    (Jrec.decode_jsuper jbd buf = Some { Jrec.sequence = 42; start = 17 })

let prop_desc_roundtrip =
  QCheck.Test.make ~name:"journal descriptor roundtrip" ~count:200
    QCheck.(pair (int_range 1 10000) (small_list (int_bound 2047)))
    (fun (seq, tags) ->
      let buf = Bytes.make 4096 '\000' in
      Jrec.encode_desc jbd { Jrec.seq; tags } buf;
      Jrec.decode_desc jbd buf = Some { Jrec.seq; tags })

let test_commit_roundtrip_with_checksum () =
  let d = Iron_util.Sha1.to_raw (Iron_util.Sha1.digest_string "payload") in
  let buf = Bytes.make 4096 '\000' in
  Jrec.encode_commit jbd { Jrec.cseq = 9; checksum = Some d } buf;
  (match Jrec.decode_commit jbd buf with
  | Some { Jrec.cseq = 9; checksum = Some d' } ->
      check Alcotest.string "digest preserved" d d'
  | _ -> Alcotest.fail "roundtrip failed");
  Jrec.encode_commit jbd { Jrec.cseq = 10; checksum = None } buf;
  check Alcotest.bool "no-checksum form" true
    (Jrec.decode_commit jbd buf = Some { Jrec.cseq = 10; checksum = None })

let prop_revoke_roundtrip =
  QCheck.Test.make ~name:"revoke block roundtrip" ~count:200
    QCheck.(pair (int_range 1 10000) (small_list (int_bound 2047)))
    (fun (rseq, revoked) ->
      let buf = Bytes.make 4096 '\000' in
      Jrec.encode_revoke jbd { Jrec.rseq; revoked } buf;
      Jrec.decode_revoke jbd buf = Some { Jrec.rseq; revoked })

let test_magic_confusion_rejected () =
  (* A descriptor must never decode as a commit, etc. *)
  let buf = Bytes.make 4096 '\000' in
  Jrec.encode_desc jbd { Jrec.seq = 1; tags = [ 5 ] } buf;
  check Alcotest.bool "desc is not commit" true
    (Jrec.decode_commit jbd buf = None);
  check Alcotest.bool "desc is not revoke" true
    (Jrec.decode_revoke jbd buf = None);
  check Alcotest.bool "desc is not jsuper" true
    (Jrec.decode_jsuper jbd buf = None)

(* Every block log's format: ext3's, reiserfs's journal and ntfs's
   logfile. Each record round-trips under its own format, and a block
   of one format decodes under no other. ntfs's log has no superblock,
   so its format's superblock record is left out. *)
let brand_formats =
  [
    ("ext3", jbd, true);
    ("reiserfs", Iron_reiserfs.Reiserfs.journal_format, true);
    ("ntfs", Iron_ntfs.Ntfs.log_format, false);
  ]

let test_brand_formats () =
  let buf = Bytes.make 4096 '\000' in
  let js = { Jrec.sequence = 7; start = 3 } in
  let d = { Jrec.seq = 7; tags = [ 100; 101; 2047 ] } in
  let c = { Jrec.cseq = 7; checksum = None } in
  let r = { Jrec.rseq = 7; revoked = [ 100 ] } in
  List.iter
    (fun (name, fmt, has_jsuper) ->
      let under what decode =
        List.iter
          (fun (other, ofmt, _) ->
            let got = decode ofmt buf in
            if other = name then
              check Alcotest.bool
                (Printf.sprintf "%s %s round-trips" name what)
                true got
            else
              check Alcotest.bool
                (Printf.sprintf "%s %s is not %s's" name what other)
                false got)
          brand_formats
      in
      if has_jsuper then begin
        Jrec.encode_jsuper fmt js buf;
        under "superblock" (fun f b -> Jrec.decode_jsuper f b = Some js)
      end;
      Jrec.encode_desc fmt d buf;
      under "descriptor" (fun f b -> Jrec.decode_desc f b = Some d);
      Jrec.encode_commit fmt c buf;
      under "commit" (fun f b -> Jrec.decode_commit f b = Some c);
      match fmt.Jrec.revoke_magic with
      | Some _ ->
          Jrec.encode_revoke fmt r buf;
          under "revoke" (fun f b -> Jrec.decode_revoke f b = Some r)
      | None ->
          check Alcotest.bool (name ^ " has no revoke record") true
            (Jrec.decode_revoke fmt buf = None))
    brand_formats

let suites =
  [
    ( "ext3.layout",
      [
        Alcotest.test_case "regions disjoint" `Quick test_layout_regions_disjoint;
        Alcotest.test_case "replica slots ordered" `Quick
          test_layout_replica_targets_have_slots;
        Alcotest.test_case "replica_of matches replica_targets" `Quick
          test_layout_replica_of_matches_targets;
        qtest prop_inode_location_bijective;
        qtest prop_inode_location_in_itable;
        qtest prop_cksum_locations_cover;
      ] );
    ( "ext3.codec",
      [
        Alcotest.test_case "superblock roundtrip" `Quick test_sb_roundtrip;
        Alcotest.test_case "superblock bad magic" `Quick test_sb_rejects_bad_magic;
        Alcotest.test_case "superblock impossible geometry" `Quick
          test_sb_rejects_impossible_geometry;
        qtest prop_inode_roundtrip;
        Alcotest.test_case "inode decode total" `Quick test_inode_decode_total_on_garbage;
        Alcotest.test_case "inode slots independent" `Quick test_inode_slots_independent;
        qtest prop_dirent_roundtrip;
        Alcotest.test_case "dirent garbage safe" `Quick test_dirent_decode_garbage_safe;
        Alcotest.test_case "dirent overflow" `Quick test_dirent_overflow_reports;
      ] );
    ( "ext3.jrec",
      [
        Alcotest.test_case "jsuper roundtrip" `Quick test_jsuper_roundtrip;
        qtest prop_desc_roundtrip;
        Alcotest.test_case "commit with checksum" `Quick
          test_commit_roundtrip_with_checksum;
        qtest prop_revoke_roundtrip;
        Alcotest.test_case "magic confusion rejected" `Quick
          test_magic_confusion_rejected;
        Alcotest.test_case "brand formats apart" `Quick test_brand_formats;
      ] );
  ]
