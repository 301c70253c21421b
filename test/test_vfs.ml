(* Tests for the VFS support layer: paths, the generic resolver, fd
   tables and the kernel log; and, on every brand, the POSIX rule for a
   regular file named as a parent. *)

module Path = Iron_vfs.Path
module Resolver = Iron_vfs.Resolver
module Fdtable = Iron_vfs.Fdtable
module Klog = Iron_vfs.Klog
module Errno = Iron_vfs.Errno
module Fs = Iron_vfs.Fs
module Memdisk = Iron_disk.Memdisk

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Path --------------------------------------------------------------- *)

let test_split () =
  check Alcotest.(list string) "basic" [ "a"; "b"; "c" ] (Path.split "/a/b/c");
  check Alcotest.(list string) "doubled slashes" [ "a"; "c" ] (Path.split "/a//c");
  check Alcotest.(list string) "root" [] (Path.split "/");
  check Alcotest.(list string) "relative" [ "x"; "y" ] (Path.split "x/y");
  check Alcotest.(list string) "trailing slash" [ "a" ] (Path.split "/a/")

let test_dirname_basename () =
  let t = Alcotest.(pair string string) in
  check t "absolute" ("/a/b", "c") (Path.dirname_basename "/a/b/c");
  check t "top level" ("/", "x") (Path.dirname_basename "/x");
  check t "relative single" (".", "x") (Path.dirname_basename "x");
  check t "relative nested" ("a/b", "c") (Path.dirname_basename "a/b/c");
  check t "root" ("/", "") (Path.dirname_basename "/")

let test_validate_component () =
  check Alcotest.bool "ok name" true (Path.validate_component "file.txt" = Ok ());
  check Alcotest.bool "empty" true
    (Path.validate_component "" = Error Errno.ENOENT);
  check Alcotest.bool "too long" true
    (Path.validate_component (String.make 300 'a') = Error Errno.ENAMETOOLONG);
  check Alcotest.bool "slash" true
    (Path.validate_component "a/b" = Error Errno.EINVAL);
  check Alcotest.bool "NUL" true
    (Path.validate_component "a\000b" = Error Errno.EINVAL)

let prop_join_split =
  QCheck.Test.make ~name:"join then split recovers components" ~count:200
    QCheck.(small_list (string_gen_of_size (Gen.int_range 1 10) (Gen.char_range 'a' 'z')))
    (fun parts ->
      let path = List.fold_left Path.join "/" parts in
      Path.split path = parts)

(* --- Resolver ------------------------------------------------------------ *)

(* A toy object store: 1=/ 2=/dir 3=/dir/file 4=/link->/dir/file
   5=/dir/sub 6=/abs-loop->/abs-loop *)
let toy =
  {
    Resolver.lookup =
      (fun dir name ->
        match (dir, name) with
        | 1, "dir" -> Ok 2
        | 1, "link" -> Ok 4
        | 1, "loop" -> Ok 6
        | 2, "file" -> Ok 3
        | 2, "sub" -> Ok 5
        | 5, "up" -> Ok 2
        | _ -> Error Errno.ENOENT);
    kind_of =
      (fun o ->
        match o with
        | 1 | 2 | 5 -> Ok Fs.Directory
        | 3 -> Ok Fs.Regular
        | 4 | 6 -> Ok Fs.Symlink
        | _ -> Error Errno.EIO);
    readlink_of =
      (fun o ->
        match o with
        | 4 -> Ok "/dir/file"
        | 6 -> Ok "/loop"
        | _ -> Error Errno.EINVAL);
  }

let resolve ?follow_last p = Resolver.resolve toy ~root:1 ~cwd:2 ?follow_last p

let test_resolver_basics () =
  check Alcotest.int "absolute" 3 (Result.get_ok (resolve "/dir/file"));
  check Alcotest.int "relative from cwd" 3 (Result.get_ok (resolve "file"));
  check Alcotest.int "root" 1 (Result.get_ok (resolve "/"));
  check Alcotest.int "nested" 5 (Result.get_ok (resolve "/dir/sub"))

let test_resolver_symlinks () =
  check Alcotest.int "followed" 3 (Result.get_ok (resolve "/link"));
  check Alcotest.int "not followed" 4
    (Result.get_ok (resolve ~follow_last:false "/link"));
  check Alcotest.bool "loop detected" true (resolve "/loop" = Error Errno.ELOOP)

let test_resolver_enotdir () =
  check Alcotest.bool "file as dir" true
    (resolve "/dir/file/deeper" = Error Errno.ENOTDIR)

let test_resolve_parent () =
  let rp p = Resolver.resolve_parent toy ~root:1 ~cwd:2 p in
  check Alcotest.bool "parent of /dir/file" true (rp "/dir/file" = Ok (2, "file"));
  check Alcotest.bool "parent of new name" true (rp "/dir/new" = Ok (2, "new"));
  check Alcotest.bool "relative" true (rp "sub/up" = Ok (5, "up"));
  check Alcotest.bool "root has no parent entry" true (rp "/" = Error Errno.EINVAL)

(* The walk reads the parent's kind, through a symlink too; the root
   is a parent with no component to read. *)
let test_parent_not_dir () =
  let rp p = Resolver.resolve_parent toy ~root:1 ~cwd:2 p in
  check Alcotest.bool "file" true (rp "/dir/file/x" = Error Errno.ENOTDIR);
  check Alcotest.bool "link to a file" true
    (rp "/link/x" = Error Errno.ENOTDIR);
  check Alcotest.bool "in root" true (rp "/x" = Ok (1, "x"))

(* --- Fdtable -------------------------------------------------------------- *)

let test_fdtable () =
  let t = Fdtable.create () in
  let fd1 = Fdtable.alloc t "one" in
  let fd2 = Fdtable.alloc t "two" in
  check Alcotest.bool "distinct" true (fd1 <> fd2);
  check Alcotest.bool "find" true (Fdtable.find t fd1 = Ok "one");
  check Alcotest.bool "close" true (Fdtable.close t fd1 = Ok ());
  check Alcotest.bool "EBADF after close" true (Fdtable.find t fd1 = Error Errno.EBADF);
  check Alcotest.bool "double close" true (Fdtable.close t fd1 = Error Errno.EBADF);
  check Alcotest.bool "other survives" true (Fdtable.find t fd2 = Ok "two")

let prop_fdtable_unique =
  QCheck.Test.make ~name:"fd allocation never reuses live fds" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let t = Fdtable.create () in
      let fds = List.init n (fun i -> Fdtable.alloc t i) in
      List.length (List.sort_uniq compare fds) = n)

(* --- Klog ------------------------------------------------------------------ *)

let test_klog_capture () =
  let k = Klog.create () in
  Klog.info k "fs" "mounted %d" 1;
  Klog.warn k "fs" "odd thing";
  Klog.error k "fs" "bad thing %s" "happened";
  let es = Klog.entries k in
  check Alcotest.int "three entries" 3 (List.length es);
  check Alcotest.string "formatted" "mounted 1" (List.hd es).Klog.message;
  check Alcotest.int "errors filtered" 1 (List.length (Klog.errors k));
  Klog.clear k;
  check Alcotest.int "cleared" 0 (List.length (Klog.entries k))

let test_klog_panic_raises_and_logs () =
  let k = Klog.create () in
  (try
     let (_ : unit) = Klog.panic k "fs" "going down: %d" 42 in
     Alcotest.fail "must raise"
   with Klog.Panic msg ->
     check Alcotest.string "message" "fs: going down: 42" msg);
  check Alcotest.int "logged before raising" 1 (List.length (Klog.errors k))

(* --- A regular file as a parent --------------------------------------- *)

let brands =
  [
    Iron_ext3.Ext3.std; Iron_ext3.Modes.writeback; Iron_ext3.Modes.data;
    Iron_ext3.Ext3.ixt3; Iron_reiserfs.Reiserfs.brand; Iron_jfs.Jfs.brand;
    Iron_ntfs.Ntfs.brand;
  ]

let must what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

(* A regular file [/f] holds no names: a link, rename or removal that
   names one under it fails with ENOTDIR, before it can read [/f]'s
   bytes as a directory, and leaves [/a] and [/f] as they were, across
   a remount too. *)
let test_file_parent brand () =
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048 }
      ()
  in
  Memdisk.set_time_model disk false;
  let dev = Memdisk.dev disk in
  let bytes = Bytes.init 100 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  (* Both files as they were, then unmount. *)
  let intact (Fs.Boxed ((module F), t)) when_ =
    let a = must "stat /a" (F.stat t "/a") in
    check
      Alcotest.(pair int int)
      ("/a " ^ when_) (1, 0) (a.Fs.st_links, a.st_size);
    let fd = must "open /f" (F.open_ t "/f" Fs.Rd) in
    check Alcotest.string ("/f " ^ when_) (Bytes.to_string bytes)
      (Bytes.to_string (must "read /f" (F.read t fd ~off:0 ~len:200)));
    must "close /f" (F.close t fd);
    must "unmount" (F.unmount t)
  in
  must "mkfs" (Fs.mkfs brand dev);
  let fs = must "mount" (Fs.mount brand dev) in
  (let (Fs.Boxed ((module F), t)) = fs in
   let fd = must "creat /f" (F.creat t "/f") in
   check Alcotest.int "wrote /f" 100
     (must "write /f" (F.write t fd ~off:0 bytes));
   must "close /f" (F.close t fd);
   must "close /a" (F.close t (must "creat /a" (F.creat t "/a")));
   let enotdir what r =
     check Alcotest.string what "ENOTDIR"
       (match r with Ok () -> "ok" | Error e -> Errno.to_string e)
   in
   enotdir "link /a /f/x" (F.link t "/a" "/f/x");
   enotdir "rename /a /f/y" (F.rename t "/a" "/f/y");
   enotdir "rename /f/x /y" (F.rename t "/f/x" "/y");
   enotdir "unlink /f/x" (F.unlink t "/f/x");
   enotdir "rmdir /f/x" (F.rmdir t "/f/x"));
  intact fs "live";
  intact (must "remount" (Fs.mount brand dev)) "after remount"

let suites =
  [
    ( "vfs.path",
      [
        Alcotest.test_case "split" `Quick test_split;
        Alcotest.test_case "dirname/basename" `Quick test_dirname_basename;
        Alcotest.test_case "validate component" `Quick test_validate_component;
        qtest prop_join_split;
      ] );
    ( "vfs.resolver",
      [
        Alcotest.test_case "basics" `Quick test_resolver_basics;
        Alcotest.test_case "symlinks" `Quick test_resolver_symlinks;
        Alcotest.test_case "ENOTDIR" `Quick test_resolver_enotdir;
        Alcotest.test_case "resolve parent" `Quick test_resolve_parent;
        Alcotest.test_case "parent not a directory" `Quick test_parent_not_dir;
      ] );
    ( "vfs.fdtable",
      [
        Alcotest.test_case "lifecycle" `Quick test_fdtable;
        qtest prop_fdtable_unique;
      ] );
    ( "vfs.klog",
      [
        Alcotest.test_case "capture" `Quick test_klog_capture;
        Alcotest.test_case "panic" `Quick test_klog_panic_raises_and_logs;
      ] );
    ( "vfs.file-parent",
      List.map
        (fun brand ->
          Alcotest.test_case
            (Fs.brand_name brand ^ ": ENOTDIR under a regular file")
            `Quick (test_file_parent brand))
        brands );
  ]
