(* Integration and unit tests for the ext3 model (stock profile). *)

open Iron_disk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Ext3 = Iron_ext3.Ext3
module Layout = Iron_ext3.Layout
module Inode = Iron_ext3.Inode
module Dirent = Iron_ext3.Dirent

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let errno = Alcotest.testable Errno.pp Errno.equal

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errno.to_string e)

let expect_err expected = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" (Errno.to_string expected)
  | Error e -> check errno "errno" expected e

let small_disk () =
  Memdisk.create
    ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 5 }
    ()

(* Mount a fresh stock-ext3 volume; returns (memdisk, injector, boxed fs). *)
let fresh ?(brand = Ext3.std) () =
  let d = small_disk () in
  Memdisk.set_time_model d false;
  let inj = Fault.create (Memdisk.dev d) in
  let dev = Fault.dev inj in
  ok (Fs.mkfs brand dev);
  let fs = ok (Fs.mount brand dev) in
  (d, inj, fs)

(* Convenience wrappers over the boxed instance. *)
let mkfile (Fs.Boxed ((module F), t)) path content =
  let fd = ok (F.creat t path) in
  let n = ok (F.write t fd ~off:0 (Bytes.of_string content)) in
  check Alcotest.int "write length" (String.length content) n;
  ok (F.close t fd)

let readfile (Fs.Boxed ((module F), t)) path =
  let fd = ok (F.open_ t path Fs.Rd) in
  let st = ok (F.stat t path) in
  let data = ok (F.read t fd ~off:0 ~len:st.Fs.st_size) in
  ok (F.close t fd);
  Bytes.to_string data

(* --- basic operation tests ------------------------------------------ *)

let test_mkfs_mount_unmount () =
  let _, _, (Fs.Boxed ((module F), t) as _fs) = fresh () in
  let st = ok (F.statfs t) in
  check Alcotest.bool "free blocks positive" true (st.Fs.f_bfree > 0);
  check Alcotest.bool "free inodes positive" true (st.Fs.f_ffree > 0);
  ok (F.unmount t)

let test_create_and_read_back () =
  let _, _, fs = fresh () in
  mkfile fs "/hello.txt" "hello, iron world";
  check Alcotest.string "content" "hello, iron world" (readfile fs "/hello.txt")

let test_stat_fields () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/f" "12345";
  let st = ok (F.stat t "/f") in
  check Alcotest.int "size" 5 st.Fs.st_size;
  check Alcotest.int "links" 1 st.Fs.st_links;
  check Alcotest.bool "regular" true (st.Fs.st_kind = Fs.Regular)

let test_mkdir_hierarchy () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  ok (F.mkdir t "/a");
  ok (F.mkdir t "/a/b");
  ok (F.mkdir t "/a/b/c");
  mkfile fs "/a/b/c/deep.txt" "deep";
  check Alcotest.string "deep read" "deep" (readfile fs "/a/b/c/deep.txt");
  let st = ok (F.stat t "/a") in
  check Alcotest.int "dir links (., .., b)" 3 st.Fs.st_links

let test_getdirentries () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  ok (F.mkdir t "/d");
  mkfile fs "/d/one" "1";
  mkfile fs "/d/two" "2";
  let names = List.map fst (ok (F.getdirentries t "/d")) |> List.sort compare in
  check Alcotest.(list string) "entries" [ "."; ".."; "one"; "two" ] names

let test_unlink () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/gone" "x";
  let st0 = ok (F.statfs t) in
  ok (F.unlink t "/gone");
  expect_err Errno.ENOENT (F.stat t "/gone");
  let st1 = ok (F.statfs t) in
  check Alcotest.bool "blocks returned" true (st1.Fs.f_bfree >= st0.Fs.f_bfree);
  check Alcotest.int "inode returned" (st0.Fs.f_ffree + 1) st1.Fs.f_ffree

let test_link_and_counts () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/orig" "shared";
  ok (F.link t "/orig" "/alias");
  check Alcotest.int "links" 2 (ok (F.stat t "/orig")).Fs.st_links;
  check Alcotest.string "alias reads" "shared" (readfile fs "/alias");
  ok (F.unlink t "/orig");
  check Alcotest.string "alias survives" "shared" (readfile fs "/alias");
  check Alcotest.int "links back to 1" 1 (ok (F.stat t "/alias")).Fs.st_links

let test_rename () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  ok (F.mkdir t "/src");
  ok (F.mkdir t "/dst");
  mkfile fs "/src/f" "payload";
  ok (F.rename t "/src/f" "/dst/g");
  expect_err Errno.ENOENT (F.stat t "/src/f");
  check Alcotest.string "moved content" "payload" (readfile fs "/dst/g")

let test_rename_replaces_target () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/a" "aaa";
  mkfile fs "/b" "bbb";
  ok (F.rename t "/a" "/b");
  check Alcotest.string "target replaced" "aaa" (readfile fs "/b");
  expect_err Errno.ENOENT (F.stat t "/a")

let test_rmdir_nonempty () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  ok (F.mkdir t "/full");
  mkfile fs "/full/x" "x";
  expect_err Errno.ENOTEMPTY (F.rmdir t "/full");
  ok (F.unlink t "/full/x");
  ok (F.rmdir t "/full");
  expect_err Errno.ENOENT (F.stat t "/full")

let test_symlink_readlink_follow () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/target" "pointed-at";
  ok (F.symlink t "/target" "/lnk");
  check Alcotest.string "readlink" "/target" (ok (F.readlink t "/lnk"));
  check Alcotest.string "follow" "pointed-at" (readfile fs "/lnk");
  let st = ok (F.lstat t "/lnk") in
  check Alcotest.bool "lstat sees symlink" true (st.Fs.st_kind = Fs.Symlink)

let test_symlink_loop () =
  let _, _, (Fs.Boxed ((module F), t)) = fresh () in
  ok (F.symlink t "/l2" "/l1");
  ok (F.symlink t "/l1" "/l2");
  expect_err Errno.ELOOP (F.stat t "/l1")

let test_chdir_relative_paths () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  ok (F.mkdir t "/w");
  ok (F.chdir t "/w");
  mkfile fs "rel.txt" "relative";
  check Alcotest.string "via absolute" "relative" (readfile fs "/w/rel.txt")

let test_chmod_chown_utimes () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/meta" "m";
  ok (F.chmod t "/meta" 0o600);
  ok (F.chown t "/meta" 7 8);
  ok (F.utimes t "/meta" 100.0 200.0);
  let st = ok (F.stat t "/meta") in
  check Alcotest.int "mode" 0o600 st.Fs.st_mode;
  check Alcotest.int "uid" 7 st.Fs.st_uid;
  check Alcotest.int "gid" 8 st.Fs.st_gid;
  check Alcotest.(float 0.1) "atime" 100.0 st.Fs.st_atime;
  check Alcotest.(float 0.1) "mtime" 200.0 st.Fs.st_mtime

let test_truncate_shrinks_and_frees () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  let big = String.init 40000 (fun i -> Char.chr (i mod 251)) in
  mkfile fs "/big" big;
  let free0 = (ok (F.statfs t)).Fs.f_bfree in
  ok (F.truncate t "/big" 100);
  check Alcotest.int "size" 100 (ok (F.stat t "/big")).Fs.st_size;
  check Alcotest.string "prefix preserved" (String.sub big 0 100) (readfile fs "/big");
  check Alcotest.bool "blocks freed" true ((ok (F.statfs t)).Fs.f_bfree > free0);
  (* A cut inside a kept pointer block, indirect item or xtree node
     (12 -> 6 blocks; 40 -> 21, in ext3's double indirect block and
     jfs's two-level xtree; 12 -> 3) must drop the pointers it frees, or
     the next file's blocks stay claimed by both. *)
  let bs = 4096 in
  List.iter
    (fun ((brand, fsck), (blocks, keep)) ->
      let what =
        Printf.sprintf "%s, %d -> %d blocks" (Fs.brand_name brand) blocks keep
      in
      let d, _, (Fs.Boxed ((module F), t) as fs) = fresh ~brand () in
      let f = String.init (blocks * bs) (fun i -> Char.chr (i mod 251)) in
      let g = String.init (8 * bs) (fun i -> Char.chr ((i * 7) mod 253)) in
      mkfile fs "/f" f;
      ok (F.truncate t "/f" (keep * bs));
      mkfile fs "/g" g;
      ok (F.unmount t);
      let dev = Memdisk.dev d in
      if fsck then begin
        let r = ok (Iron_ext3.Fsck.run dev) in
        check
          Alcotest.(list string)
          (what ^ ": fsck findings") []
          (List.map
             (fun f -> f.Iron_ext3.Fsck.message)
             r.Iron_ext3.Fsck.findings)
      end;
      let (Fs.Boxed ((module F), t) as fs) = ok (Fs.mount brand dev) in
      let fd = ok (F.open_ t "/f" Fs.Rdwr) in
      let tail = String.sub f (keep * bs) ((blocks - keep) * bs) in
      ignore (ok (F.write t fd ~off:(keep * bs) (Bytes.of_string tail)));
      ok (F.close t fd);
      check Alcotest.string (what ^ ": /f regrown") f (readfile fs "/f");
      check Alcotest.string (what ^ ": /g") g (readfile fs "/g");
      ok (F.unmount t))
    (List.concat_map
       (fun b -> List.map (fun cut -> (b, cut)) [ (12, 6); (40, 21); (12, 3) ])
       [
         (Ext3.std, true);
         (Iron_ext3.Modes.writeback, true);
         (Iron_ext3.Modes.data, true);
         (Ext3.ixt3, true);
         (Iron_reiserfs.Reiserfs.brand, false);
         (Iron_jfs.Jfs.brand, false);
         (Iron_ntfs.Ntfs.brand, false);
       ])

let test_large_file_indirect_paths () =
  (* 4 direct + 16 ind + 256 dind blocks = exercises double indirection
     at ~1.1 MB with the scaled-down geometry. *)
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  let size = 300 * 4096 in
  let big = String.init size (fun i -> Char.chr ((i * 7) mod 253)) in
  let fd = ok (F.creat t "/huge") in
  let n = ok (F.write t fd ~off:0 (Bytes.of_string big)) in
  check Alcotest.int "wrote all" size n;
  ok (F.close t fd);
  ok (F.sync t);
  check Alcotest.string "content back" (String.sub big 123456 1000)
    (String.sub (readfile fs "/huge") 123456 1000)

let test_sparse_file_holes_read_zero () =
  let _, _, (Fs.Boxed ((module F), t)) = fresh () in
  let fd = ok (F.creat t "/sparse") in
  ignore (ok (F.write t fd ~off:(100 * 4096) (Bytes.of_string "end")));
  let data = ok (F.read t fd ~off:4096 ~len:10) in
  check Alcotest.bytes "hole reads zero" (Bytes.make 10 '\000') data;
  let tail = ok (F.read t fd ~off:(100 * 4096) ~len:3) in
  check Alcotest.string "tail" "end" (Bytes.to_string tail)

let test_partial_block_overwrite () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/part" (String.make 8192 'a');
  let fd = ok (F.open_ t "/part" Fs.Rdwr) in
  ignore (ok (F.write t fd ~off:4000 (Bytes.of_string "XYZ")));
  ok (F.close t fd);
  let s = readfile fs "/part" in
  check Alcotest.string "overwrite spans blocks" "aXYZa" (String.sub s 3999 5);
  check Alcotest.int "size unchanged" 8192 (String.length s)

let test_enospc () =
  let _, _, (Fs.Boxed ((module F), t)) = fresh () in
  let chunk = Bytes.make (64 * 4096) 'f' in
  let rec fill i =
    if i > 200 then Alcotest.fail "never hit ENOSPC"
    else
      match F.creat t (Printf.sprintf "/fill%d" i) with
      | Error Errno.ENOSPC -> ()
      | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e)
      | Ok fd -> (
          match F.write t fd ~off:0 chunk with
          | Ok _ ->
              ok (F.close t fd);
              fill (i + 1)
          | Error Errno.ENOSPC -> ()
          | Error e -> Alcotest.failf "unexpected %s" (Errno.to_string e))
  in
  fill 0

let test_errno_cases () =
  let _, _, (Fs.Boxed ((module F), t) as fs) = fresh () in
  expect_err Errno.ENOENT (F.stat t "/missing");
  mkfile fs "/file" "x";
  expect_err Errno.ENOTDIR (F.stat t "/file/sub");
  expect_err Errno.EEXIST (F.mkdir t "/file");
  expect_err Errno.EISDIR (F.unlink t "/");
  expect_err Errno.EBADF (F.read t 999 ~off:0 ~len:1);
  expect_err Errno.EINVAL (F.readlink t "/file")

(* --- journaling / crash recovery ------------------------------------ *)

let test_remount_preserves_data () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/persist" "still here";
  ok (F.unmount t);
  let fs2 = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  check Alcotest.string "after remount" "still here" (readfile fs2 "/persist");
  ignore d

let test_crash_after_sync_recovers_via_journal () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/committed" "journal me";
  (* fsync commits the transaction to the journal without
     checkpointing, so the crash image needs replay at mount. *)
  let fd = ok (F.open_ t "/committed" Fs.Rd) in
  ok (F.fsync t fd);
  (* Crash: abandon the mounted instance without unmount/checkpoint. *)
  ignore t;
  let fs2 = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  check Alcotest.string "replayed" "journal me" (readfile fs2 "/committed");
  let (Fs.Boxed ((module F2), t2)) = fs2 in
  let logs = Klog.entries (F2.klog t2) in
  check Alcotest.bool "recovery logged" true
    (List.exists (fun e -> e.Klog.level = Klog.Info) logs);
  ignore d

let test_crash_without_sync_loses_uncommitted () =
  let _, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/sync-me" "A";
  let fd = ok (F.open_ t "/sync-me" Fs.Rd) in
  ok (F.fsync t fd);
  mkfile fs "/lost" "B";
  (* no sync: metadata only in the in-memory transaction *)
  ignore t;
  let (Fs.Boxed ((module F2), t2) as fs2) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  check Alcotest.string "committed survives" "A" (readfile fs2 "/sync-me");
  expect_err Errno.ENOENT (F2.stat t2 "/lost")

let test_recovery_idempotent () =
  let _, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/twice" "idem";
  let fd = ok (F.open_ t "/twice" Fs.Rd) in
  ok (F.fsync t fd);
  ignore t;
  let (Fs.Boxed ((module Fa), ta)) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  ok (Fa.unmount ta);
  let fs3 = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  check Alcotest.string "second replay harmless" "idem" (readfile fs3 "/twice")

(* --- stock-ext3 failure-policy behaviours --------------------------- *)

let test_read_failure_propagates () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/victim" (String.make 5000 'v');
  ok (F.unmount t);
  (* Remount so reads actually reach the (faulty) device rather than
     the old instance's page cache. *)
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  let lay = Iron_ext3.Ext3.layout_of_dev (Fault.dev inj) in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let data_blocks =
    List.filter (fun b -> cls b = "data")
      (List.init lay.Layout.num_blocks Fun.id)
  in
  check Alcotest.bool "found data blocks" true (data_blocks <> []);
  List.iter
    (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
    data_blocks;
  let fd = ok (F.open_ t "/victim" Fs.Rd) in
  expect_err Errno.EIO (F.read t fd ~off:0 ~len:100)

let test_write_errors_silently_ignored () =
  (* The paper's headline ext3 bug: checkpoint write failures vanish. *)
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  let lay = Iron_ext3.Ext3.layout_of_dev (Fault.dev inj) in
  ignore
    (Fault.arm inj
       (Fault.rule (Fault.Block (Layout.itable_block lay 0)) Fault.Fail_write));
  mkfile fs "/quiet" "q";
  ok (F.sync t);
  ok (F.unmount t);
  (* No error was surfaced, and the inode table on disk is stale. *)
  check Alcotest.bool "not readonly" false (F.is_readonly t);
  ignore d

let test_corrupt_super_fails_mount () =
  let d, inj, (Fs.Boxed ((module F), t)) = fresh () in
  ok (F.unmount t);
  let buf = Memdisk.peek d 0 in
  Bytes.set buf 0 '\xFF';
  Memdisk.poke d 0 buf;
  match Fs.mount Ext3.std (Fault.dev inj) with
  | Ok _ -> Alcotest.fail "mount should fail on corrupt superblock"
  | Error e -> check Alcotest.bool "EUCLEAN or EIO" true (e = Errno.EUCLEAN || e = Errno.EIO)

let test_linkcount_corruption_panics_stock () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/doomed" "d";
  ok (F.sync t);
  let (Fs.Boxed ((module Fu), tu)) = fs in
  ok (Fu.unmount tu);
  let fs2 = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  (* Corrupt the inode's link count on disk via the type-aware tweak. *)
  let lay = Iron_ext3.Ext3.layout_of_dev (Fault.dev inj) in
  let iblk = Layout.itable_block lay 0 in
  let tweak = Option.get (Iron_ext3.Classifier.corrupt_field "inode") in
  let buf = Memdisk.peek d iblk in
  tweak buf;
  Memdisk.poke d iblk buf;
  let (Fs.Boxed ((module F2), t2)) = fs2 in
  (try
     ignore (F2.unlink t2 "/doomed");
     Alcotest.fail "expected kernel panic"
   with Klog.Panic _ -> ());
  ignore t

let test_truncate_swallows_read_errors () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  let big = String.make (30 * 4096) 'i' in
  mkfile fs "/leaky" big;
  ok (F.unmount t);
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let lay = Iron_ext3.Ext3.layout_of_dev (Fault.dev inj) in
  let ind_blocks =
    List.filter (fun b -> cls b = "indirect")
      (List.init lay.Layout.num_blocks Fun.id)
  in
  check Alcotest.bool "has indirect blocks" true (ind_blocks <> []);
  List.iter
    (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
    ind_blocks;
  (* Stock ext3: detected but not propagated — returns Ok and leaks. *)
  (match F.truncate t "/leaky" 0 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stock truncate should be silent, got %s" (Errno.to_string e));
  let logs = Klog.errors (F.klog t) in
  check Alcotest.bool "error was logged though" true (logs <> [])

(* --- op-layer policies the stream pins do not reach --------------------- *)

(* Every bug fix, no IRON feature. *)
let fixed = Ext3.brand (Iron_ext3.Profile.ixt3_with ())

(* Rewrite inode [ino] on the unmounted image. *)
let edit_inode d inj ino f =
  let lay = Ext3.layout_of_dev (Fault.dev inj) in
  let blk, off = Layout.inode_location lay ino in
  let buf = Memdisk.peek d blk in
  Inode.encode lay (f (Inode.decode lay buf off)) buf off;
  Memdisk.poke d blk buf

(* rename frees a file it replaces in place: a failed read under it
   leaks blocks without an error, even on the fixed profile, where
   unlink would report EIO, and the directory's times stay. *)
let test_rename_frees_target_quietly () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh ~brand:fixed () in
  ok (F.mkdir t "/d");
  mkfile fs "/d/old" (String.make (30 * 4096) 'o');
  mkfile fs "/src" "new";
  ok (F.utimes t "/d" 100.0 200.0);
  ok (F.unmount t);
  let dev = Fault.dev inj in
  let (Fs.Boxed ((module F), t) as fs) = ok (Fs.mount fixed dev) in
  let before = ok (F.stat t "/d") in
  let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
  let ids =
    List.init (Ext3.layout_of_dev dev).Layout.num_blocks Fun.id
    |> List.filter (fun b -> cls b = "indirect")
    |> List.map (fun b -> Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read))
  in
  check Alcotest.bool "has indirect blocks" true (ids <> []);
  ok (F.rename t "/src" "/d/old");
  check Alcotest.bool "a read under /d/old failed" true
    (List.exists (fun id -> Fault.fired inj id > 0) ids);
  let after = ok (F.stat t "/d") in
  check
    Alcotest.(pair (float 0.) (float 0.))
    "/d's mtime and ctime" (before.Fs.st_mtime, before.Fs.st_ctime)
    (after.Fs.st_mtime, after.Fs.st_ctime);
  check Alcotest.(float 0.) "/d's mtime is utimes's" 200.0 after.Fs.st_mtime;
  check Alcotest.string "/d/old" "new" (readfile fs "/d/old")

(* Once the journal aborts, every op that would update the volume
   fails with EROFS before it reads a block. *)
let test_erofs_before_any_request () =
  let _, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  ok (F.mkdir t "/d");
  mkfile fs "/d/f" "x";
  ok (F.unmount t);
  let dev = Fault.dev inj in
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Ext3.std dev) in
  let fd = ok (F.open_ t "/d/f" Fs.Rdwr) in
  ignore
    (Fault.arm inj
       (Fault.rule
          (Fault.Block (Layout.ibitmap_block (Ext3.layout_of_dev dev) 0))
          Fault.Fail_read));
  expect_err Errno.EIO (F.creat t "/new");
  check Alcotest.bool "aborted" true (F.is_readonly t);
  Fault.disarm_all inj;
  Fault.clear_trace inj;
  List.iter
    (fun (what, r) ->
      match r with
      | Error Errno.EROFS -> ()
      | Ok () -> Alcotest.failf "%s: expected EROFS, got Ok" what
      | Error e -> Alcotest.failf "%s: expected EROFS, got %s" what (Errno.to_string e))
    [
      ("creat", Result.map ignore (F.creat t "/d/g"));
      ("mkdir", F.mkdir t "/d/x");
      ("symlink", F.symlink t "f" "/d/s");
      ("link", F.link t "/d/f" "/d/l");
      ("unlink", F.unlink t "/d/f");
      ("rmdir", F.rmdir t "/d");
      ("rename", F.rename t "/d/f" "/d/g");
      ("truncate", F.truncate t "/d/f" 0);
      ("chmod", F.chmod t "/d/f" 0o600);
      ("chown", F.chown t "/d/f" 1 1);
      ("utimes", F.utimes t "/d/f" 1.0 1.0);
      ("write", Result.map ignore (F.write t fd ~off:0 (Bytes.of_string "y")));
    ];
  check Alcotest.int "device requests" 0 (List.length (Fault.trace inj))

(* open checks the size field (the paper's inode sanity check). *)
let test_open_impossible_size () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/f" "x";
  let ino = (ok (F.stat t "/f")).Fs.st_ino in
  ok (F.unmount t);
  let lay = Ext3.layout_of_dev (Fault.dev inj) in
  let size = (Inode.max_file_blocks lay * lay.Layout.block_size) + 1 in
  edit_inode d inj ino (fun i -> { i with Inode.size });
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  expect_err Errno.EUCLEAN (F.open_ t "/f" Fs.Rd);
  check
    Alcotest.(list string)
    "klog"
    [ Printf.sprintf "inode %d has impossible size %d" ino size ]
    (List.map (fun e -> e.Klog.message) (Klog.errors (F.klog t)))

(* The fixed profile answers a zero link count with EUCLEAN, before
   the name goes, where stock ext3 panics. *)
let test_zero_links_fixed () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh ~brand:fixed () in
  mkfile fs "/doomed" "d";
  let ino = (ok (F.stat t "/doomed")).Fs.st_ino in
  ok (F.unmount t);
  edit_inode d inj ino (fun i -> { i with Inode.links = 0 });
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount fixed (Fault.dev inj)) in
  (match F.unlink t "/doomed" with
  | exception Klog.Panic m -> Alcotest.failf "panicked: %s" m
  | r -> expect_err Errno.EUCLEAN r);
  check
    Alcotest.(list string)
    "klog"
    [ Printf.sprintf "inode %d has zero link count" ino ]
    (List.map (fun e -> e.Klog.message) (Klog.errors (F.klog t)));
  check Alcotest.int "the name stays" ino (ok (F.lstat t "/doomed")).Fs.st_ino

(* The read failures truncate and unlink report are logged once the
   inode, or the parent, is written: after the checksum lines that
   write reads under. ixt3 with Mc and Mr, one itable block corrupt on
   disk, and every indirect block and its replica unreadable. *)
let test_late_reports () =
  let brand = Ext3.brand (Iron_ext3.Profile.ixt3_with ~mc:true ~mr:true ()) in
  let last_error op ~corrupt =
    let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh ~brand () in
    (* /big's inode goes in the second itable block, the root's is in
       the first. *)
    for i = 1 to 40 do
      ok (F.close t (ok (F.creat t (Printf.sprintf "/pad%d" i))))
    done;
    mkfile fs "/big" (String.make (30 * 4096) 'b');
    let ino = (ok (F.stat t "/big")).Fs.st_ino in
    ok (F.unmount t);
    let dev = Fault.dev inj in
    let lay = Ext3.layout_of_dev dev in
    let blk, _ =
      Layout.inode_location lay (if corrupt = `File then ino else Layout.root_ino)
    in
    let buf = Memdisk.peek d blk in
    Bytes.set buf (Bytes.length buf - 1) '\xAA';
    Memdisk.poke d blk buf;
    let cls = Iron_ext3.Classifier.classify (Memdisk.peek d) in
    List.init lay.Layout.num_blocks Fun.id
    |> List.filter (fun b -> cls b = "indirect")
    |> List.iter (fun b ->
           let rb, off = Layout.rmap_location lay b in
           List.iter
             (fun b -> ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read)))
             [ b; Iron_util.Codec.read_u32 (Memdisk.peek d rb) off ]);
    let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
    expect_err Errno.EIO (op (Fs.Boxed ((module F), t)));
    (ino, (List.hd (List.rev (Klog.errors (F.klog t)))).Klog.message)
  in
  let _, line =
    last_error ~corrupt:`File (fun (Fs.Boxed ((module F), t)) -> F.truncate t "/big" 0)
  in
  check Alcotest.string "truncate's line, after the inode write"
    "2 read failures while truncating" line;
  let ino, line =
    last_error ~corrupt:`Root (fun (Fs.Boxed ((module F), t)) -> F.unlink t "/big")
  in
  check Alcotest.string "unlink's line, after the parent update"
    (Printf.sprintf "read failures while freeing inode %d" ino)
    line

(* A parent the walk did not read, as the root is for a name in it, is
   read and checked before its blocks are: unlink and rename under a
   root whose inode says file answer ENOTDIR. *)
let test_parent_inode_checked () =
  let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  mkfile fs "/a" "a";
  ok (F.unmount t);
  edit_inode d inj Layout.root_ino (fun i -> { i with Inode.kind = Inode.Regular });
  let (Fs.Boxed ((module F), t)) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
  expect_err Errno.ENOTDIR (F.unlink t "/a");
  expect_err Errno.ENOTDIR (F.rename t "/a" "/b");
  expect_err Errno.ENOTDIR (F.creat t "/c")

(* A new inode goes to its parent's group first: ext3's goal group. *)
let test_inode_goal_group () =
  let _, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
  let per = (Ext3.layout_of_dev (Fault.dev inj)).Layout.inodes_per_group in
  let group ino = (ino - 1) / per in
  (* Fill group 0, whose first two inodes are reserved and the root. *)
  for i = 0 to per - 3 do
    ok (F.close t (ok (F.creat t (Printf.sprintf "/f%d" i))))
  done;
  ok (F.mkdir t "/d");
  check Alcotest.int "/d spills into group 1" 1 (group (ok (F.stat t "/d")).Fs.st_ino);
  ok (F.unlink t "/f0");
  mkfile fs "/d/x" "x";
  check Alcotest.int "/d/x in its parent's group" 1
    (group (ok (F.stat t "/d/x")).Fs.st_ino);
  mkfile fs "/y" "y";
  check Alcotest.int "/y in the root's group" 0 (group (ok (F.stat t "/y")).Fs.st_ino)

(* The path walk logs a free inode one of two ways: read as the
   directory to search, it is the walk's own start (the root here);
   read as the child a name leads to, it is an entry's target. *)
let test_free_inode_klog () =
  let walk_hits_free ~root =
    let d, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
    mkfile fs "/f" "x";
    let ino = if root then Layout.root_ino else (ok (F.stat t "/f")).Fs.st_ino in
    ok (F.unmount t);
    let blk, off = Layout.inode_location (Ext3.layout_of_dev (Fault.dev inj)) ino in
    let buf = Memdisk.peek d blk in
    Bytes.set buf off '\000' (* the kind byte: free *);
    Memdisk.poke d blk buf;
    let (Fs.Boxed ((module F), t)) = ok (Fs.mount Ext3.std (Fault.dev inj)) in
    expect_err Errno.EIO (F.stat t "/f");
    (ino, List.map (fun e -> e.Klog.message) (Klog.errors (F.klog t)))
  in
  check
    Alcotest.(list string)
    "free root" [ "path walk hit free inode 2" ]
    (snd (walk_hits_free ~root:true));
  let ino, lines = walk_hits_free ~root:false in
  check
    Alcotest.(list string)
    "entry naming a freed inode"
    [ Printf.sprintf "directory entry references free inode %d" ino ]
    lines

(* --- property tests: model-based ops sequence ------------------------ *)

(* A tiny in-memory reference model: path -> content. *)
let prop_model_random_ops =
  QCheck.Test.make ~name:"random op sequences match a reference model" ~count:30
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (pair (int_bound 9) small_string))
    (fun ops ->
      let _, _, (Fs.Boxed ((module F), t)) = fresh () in
      let model = Hashtbl.create 16 in
      let name i = Printf.sprintf "/f%d" (i mod 10) in
      List.iter
        (fun (i, content) ->
          let p = name i in
          match Hashtbl.find_opt model p with
          | None -> (
              match F.creat t p with
              | Ok fd ->
                  let data = Bytes.of_string content in
                  (match F.write t fd ~off:0 data with
                  | Ok _ -> Hashtbl.replace model p content
                  | Error _ -> ());
                  ignore (F.close t fd)
              | Error _ -> ())
          | Some _ ->
              if String.length content mod 2 = 0 then (
                match F.unlink t p with
                | Ok () -> Hashtbl.remove model p
                | Error _ -> ())
              else
                match F.truncate t p 0 with
                | Ok () -> Hashtbl.replace model p ""
                | Error _ -> ())
        ops;
      Hashtbl.fold
        (fun p content acc ->
          acc
          &&
          match F.open_ t p Fs.Rd with
          | Error _ -> false
          | Ok fd -> (
              match F.stat t p with
              | Error _ -> false
              | Ok st -> (
                  st.Fs.st_size = String.length content
                  &&
                  match F.read t fd ~off:0 ~len:st.Fs.st_size with
                  | Ok data -> Bytes.to_string data = content
                  | Error _ -> false)))
        model true)

let prop_remount_preserves_files =
  QCheck.Test.make ~name:"unmount/remount preserves files" ~count:15
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) small_string)
    (fun contents ->
      let _, inj, (Fs.Boxed ((module F), t) as fs) = fresh () in
      List.iteri (fun i c -> mkfile fs (Printf.sprintf "/p%d" i) c) contents;
      ok (F.unmount t);
      let fs2 = ok (Fs.mount Ext3.std (Fault.dev inj)) in
      List.for_all
        (fun (i, c) -> readfile fs2 (Printf.sprintf "/p%d" i) = c)
        (List.mapi (fun i c -> (i, c)) contents))

let suites =
  [
    ( "ext3.ops",
      [
        Alcotest.test_case "mkfs/mount/unmount" `Quick test_mkfs_mount_unmount;
        Alcotest.test_case "create and read back" `Quick test_create_and_read_back;
        Alcotest.test_case "stat fields" `Quick test_stat_fields;
        Alcotest.test_case "mkdir hierarchy" `Quick test_mkdir_hierarchy;
        Alcotest.test_case "getdirentries" `Quick test_getdirentries;
        Alcotest.test_case "unlink" `Quick test_unlink;
        Alcotest.test_case "link and counts" `Quick test_link_and_counts;
        Alcotest.test_case "rename" `Quick test_rename;
        Alcotest.test_case "rename replaces target" `Quick test_rename_replaces_target;
        Alcotest.test_case "rmdir nonempty" `Quick test_rmdir_nonempty;
        Alcotest.test_case "symlink/readlink/follow" `Quick test_symlink_readlink_follow;
        Alcotest.test_case "symlink loop" `Quick test_symlink_loop;
        Alcotest.test_case "chdir and relative paths" `Quick test_chdir_relative_paths;
        Alcotest.test_case "chmod/chown/utimes" `Quick test_chmod_chown_utimes;
        Alcotest.test_case "truncate shrinks and frees" `Quick test_truncate_shrinks_and_frees;
        Alcotest.test_case "large file (double indirect)" `Quick test_large_file_indirect_paths;
        Alcotest.test_case "sparse holes read zero" `Quick test_sparse_file_holes_read_zero;
        Alcotest.test_case "partial block overwrite" `Quick test_partial_block_overwrite;
        Alcotest.test_case "ENOSPC" `Quick test_enospc;
        Alcotest.test_case "errno cases" `Quick test_errno_cases;
      ] );
    ( "ext3.journal",
      [
        Alcotest.test_case "remount preserves data" `Quick test_remount_preserves_data;
        Alcotest.test_case "crash after sync recovers" `Quick
          test_crash_after_sync_recovers_via_journal;
        Alcotest.test_case "crash before sync loses txn" `Quick
          test_crash_without_sync_loses_uncommitted;
        Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
      ] );
    ( "ext3.policy",
      [
        Alcotest.test_case "read failure propagates" `Quick test_read_failure_propagates;
        Alcotest.test_case "write errors silently ignored" `Quick
          test_write_errors_silently_ignored;
        Alcotest.test_case "corrupt super fails mount" `Quick test_corrupt_super_fails_mount;
        Alcotest.test_case "linkcount corruption panics" `Quick
          test_linkcount_corruption_panics_stock;
        Alcotest.test_case "truncate swallows read errors" `Quick
          test_truncate_swallows_read_errors;
        Alcotest.test_case "free inodes in the path walk" `Quick
          test_free_inode_klog;
        Alcotest.test_case "rename frees a replaced file quietly" `Quick
          test_rename_frees_target_quietly;
        Alcotest.test_case "EROFS before any request" `Quick
          test_erofs_before_any_request;
        Alcotest.test_case "open of an impossible size" `Quick
          test_open_impossible_size;
        Alcotest.test_case "zero link count, fixed" `Quick test_zero_links_fixed;
        Alcotest.test_case "inode goal group" `Quick test_inode_goal_group;
        Alcotest.test_case "parent inode checked" `Quick test_parent_inode_checked;
        Alcotest.test_case "read failures reported last" `Quick test_late_reports;
      ] );
    ( "ext3.props",
      [ qtest prop_model_random_ops; qtest prop_remount_preserves_files ] );
  ]
