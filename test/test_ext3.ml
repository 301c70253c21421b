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
      ] );
    ( "ext3.props",
      [ qtest prop_model_random_ops; qtest prop_remount_preserves_files ] );
  ]
