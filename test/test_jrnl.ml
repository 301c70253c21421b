(* Refinement harness for the typed journal core (lib/jrnl) and the two
   journals still kept beside it (reiserfs's and ntfs's).

   Every journaling brand (the five built on the journal functor, plus
   reiserfs and ntfs) is driven with random op sequences while an
   abstract spec-state — a path -> contents map plus a directory set —
   is advanced alongside it, errno-aware: the spec moves only when the
   file system reports success. Agreement is then
   checked three ways:

   - fault-free: live state, and again across a clean unmount/remount
     (a clean unmount checkpoints, so even writeback mode must agree on
     contents);
   - across a crash (remount with no unmount): the required agreement
     depends on the commit policy. After [sync] every mode checkpoints,
     so contents must agree everywhere. After only [fsync], ordered
     mode has already written data home and data-journal mode carries
     it in the log — contents must agree — while writeback mode
     guarantees only the journaled metadata (existence and size): the
     paper's writeback data-loss window, §2.1;
   - under injected read/write faults: the paper's end-to-end contract
     (§3) — for files never touched while a fault was armed, a read
     returns the right bytes or an error, never silently wrong data.
     Commits that overlap a fault window forfeit the whole spec (DZero
     brands drop checkpoint errors on the floor, so shared metadata may
     be silently stale), and a documented panic (JFS halts on a journal
     superblock write failure) ends the case.

   The crash-state exploration leg runs lib/crash's explorer over every
   functor-built brand; its durable-file check is the same spec-state
   agreement, applied to every reordered power-cut state. reiserfs and
   ntfs stay out of that leg: both have known exploration findings
   (reiserfs panics and unmountable states under a lying cache, ntfs
   losing an fsync'd file). *)

open Iron_disk
module Fault = Iron_fault.Fault
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Obs = Iron_obs.Obs
module Jrnl = Iron_jrnl.Jrnl
module Explore = Iron_crash.Explore

let check = Alcotest.check

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Errno.to_string e)

(* Every brand whose journal is an instance of the functor core, with
   the commit policy its profile hands to the engine. *)
let functor_brands =
  [
    ("ext3", Iron_ext3.Ext3.std, Iron_ext3.Profile.(ext3.mode));
    ("ixt3", Iron_ext3.Ext3.ixt3, Iron_ext3.Profile.(ixt3.mode));
    ( "ext3-writeback",
      Iron_ext3.Modes.writeback,
      Iron_ext3.Profile.(Iron_ext3.Modes.writeback_profile.mode) );
    ("ext3-data", Iron_ext3.Modes.data, Iron_ext3.Profile.(Iron_ext3.Modes.data_profile.mode));
    (* jfs journals metadata diffs and sends data straight home: ordered
       semantics from the harness's point of view. *)
    ("jfs", Iron_jfs.Jfs.brand, Jrnl.Ordered);
  ]

(* reiserfs and ntfs journal through their own logs, not the functor
   core, but both log whole metadata blocks and send data straight home:
   ordered semantics from the harness's point of view. *)
let bespoke_brands =
  [
    ("reiserfs", Iron_reiserfs.Reiserfs.brand, Jrnl.Ordered);
    ("ntfs", Iron_ntfs.Ntfs.brand, Jrnl.Ordered);
  ]

(* Batched configurations. Group commit and batched checkpointing are
   I/O-scheduling knobs: an eager window flush or a checkpoint
   watermark reorders *when* blocks travel, never *what* a read
   returns. So the same brands with batching dialled away from the
   defaults owe exactly the same refinement — every leg below runs
   over these too, unchanged. *)
let eager_window =
  { Jrnl.group_commit = false; window_blocks = 4; checkpoint_watermark = 0 }

let watermark =
  { Jrnl.group_commit = true; window_blocks = 32; checkpoint_watermark = 3 }

let batched_brands =
  [
    ( "ext3/eager-window",
      Iron_ext3.Ext3.brand Iron_ext3.Profile.{ ext3 with tuning = eager_window },
      Iron_ext3.Profile.(ext3.mode) );
    ( "ixt3/watermark",
      Iron_ext3.Ext3.brand Iron_ext3.Profile.{ ixt3 with tuning = watermark },
      Iron_ext3.Profile.(ixt3.mode) );
    ( "ext3-data/watermark",
      Iron_ext3.Ext3.brand
        Iron_ext3.Profile.{ Iron_ext3.Modes.data_profile with tuning = watermark },
      Iron_ext3.Profile.(Iron_ext3.Modes.data_profile.mode) );
    ( "jfs/eager-window",
      Iron_jfs.Jfs.brand_with ~tuning:eager_window,
      Jrnl.Ordered );
  ]

(* --- op sequences and the spec-state ----------------------------------- *)

let file_paths = [| "/a"; "/b"; "/c"; "/d0/x"; "/d0/y"; "/d1/z" |]
let dir_paths = [| "/d0"; "/d1" |]

type op =
  | Creat of int
  | Write of int * int * int (* file, offset-ish, length-ish *)
  | Mkdir of int
  | Unlink of int
  | Rename of int * int
  | Truncate of int * int
  | Fsync of int
  | Sync
  | Inject_fail of int (* pseudo-random block selector *)
  | Clear_faults

let print_op = function
  | Creat f -> Printf.sprintf "Creat(%d)" f
  | Write (f, o, l) -> Printf.sprintf "Write(%d,%d,%d)" f o l
  | Mkdir d -> Printf.sprintf "Mkdir(%d)" d
  | Unlink f -> Printf.sprintf "Unlink(%d)" f
  | Rename (f, g) -> Printf.sprintf "Rename(%d,%d)" f g
  | Truncate (f, n) -> Printf.sprintf "Truncate(%d,%d)" f n
  | Fsync f -> Printf.sprintf "Fsync(%d)" f
  | Sync -> "Sync"
  | Inject_fail s -> Printf.sprintf "Inject_fail(%d)" s
  | Clear_faults -> "Clear_faults"

let base_ops =
  QCheck.Gen.
    [
      (4, map (fun f -> Creat f) (int_bound 5));
      ( 6,
        map3 (fun f o l -> Write (f, o, l)) (int_bound 5) (int_bound 30)
          (int_bound 19) );
      (3, map (fun d -> Mkdir d) (int_bound 1));
      (2, map (fun f -> Unlink f) (int_bound 5));
      (2, map2 (fun f g -> Rename (f, g)) (int_bound 5) (int_bound 5));
      (2, map2 (fun f n -> Truncate (f, n)) (int_bound 5) (int_bound 19));
      (2, map (fun f -> Fsync f) (int_bound 5));
      (1, return Sync);
    ]

let quiet_gen = QCheck.Gen.frequency base_ops

let faulty_gen =
  QCheck.Gen.frequency
    (base_ops
    @ [
        (3, QCheck.Gen.map (fun s -> Inject_fail s) (QCheck.Gen.int_bound 9999));
        (2, QCheck.Gen.return Clear_faults);
      ])

let ops_arb gen =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 5 40) gen)

let qtest seed t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

type spec = {
  files : (string, string) Hashtbl.t;
  dirs : (string, unit) Hashtbl.t;
}

let spec_create () = { files = Hashtbl.create 8; dirs = Hashtbl.create 4 }

let splice s off data =
  let size = max (String.length s) (off + String.length data) in
  let b = Bytes.make size '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  Bytes.blit_string data 0 b off (String.length data);
  Bytes.to_string b

let resize s n =
  if String.length s >= n then String.sub s 0 n
  else s ^ String.make (n - String.length s) '\000'

let chunk f off len =
  String.init len (fun i -> Char.chr (33 + ((f * 7 + off + i) mod 90)))

let fresh ?(wrap = Fun.id) brand =
  let d =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 77 }
      ()
  in
  Memdisk.set_time_model d false;
  let inj = Fault.create (Memdisk.dev d) in
  let dev = wrap (Fault.dev inj) in
  ok (Fs.mkfs brand dev);
  (inj, dev, ok (Fs.mount brand dev))

(* Drive one op list against the mounted FS, advancing the spec on every
   reported success. [strict] is the fault-free contract: an EIO or
   EROFS from any op fails the test on the spot. With faults in play,
   [taint] collects the paths whose state the spec no longer claims and
   [taint_all] forfeits everything (a commit overlapped a fault
   window). *)
let apply_ops (type a) (module F : Fs.S with type t = a) (t : a) ~inj ~spec
    ~strict ~taint ~taint_all ops =
  let armed = ref false in
  let stain p = Hashtbl.replace taint p () in
  let guard name = function
    | Ok _ -> ()
    | Error e ->
        if strict && (e = Errno.EIO || e = Errno.EROFS) then
          Alcotest.failf "fault-free %s returned %s" name (Errno.to_string e)
  in
  List.iter
    (fun op ->
      match op with
      | Inject_fail sel ->
          let b = sel mod 2048 in
          ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_read));
          ignore (Fault.arm inj (Fault.rule (Fault.Block b) Fault.Fail_write));
          armed := true
      | Clear_faults ->
          Fault.disarm_all inj;
          armed := false
      | Creat f -> (
          let p = file_paths.(f) in
          if !armed then stain p;
          match F.creat t p with
          | Ok fd ->
              ignore (F.close t fd);
              Hashtbl.replace spec.files p ""
          | Error _ as r ->
              guard "creat" r;
              if not strict then stain p)
      | Mkdir d -> (
          let p = dir_paths.(d) in
          if !armed then stain p;
          match F.mkdir t p with
          | Ok () -> Hashtbl.replace spec.dirs p ()
          | Error _ as r ->
              guard "mkdir" r;
              if not strict then stain p)
      | Unlink f -> (
          let p = file_paths.(f) in
          if !armed then stain p;
          match F.unlink t p with
          | Ok () -> Hashtbl.remove spec.files p
          | Error Errno.ENOENT -> ()
          | Error _ as r ->
              guard "unlink" r;
              if not strict then stain p)
      | Rename (f, g) ->
          let src = file_paths.(f) and dst = file_paths.(g) in
          if src <> dst then begin
            if !armed then begin
              stain src;
              stain dst
            end;
            match F.rename t src dst with
            | Ok () -> (
                match Hashtbl.find_opt spec.files src with
                | Some s ->
                    Hashtbl.remove spec.files src;
                    Hashtbl.replace spec.files dst s
                | None ->
                    if not strict then begin
                      stain src;
                      stain dst
                    end)
            | Error Errno.ENOENT -> ()
            | Error _ as r ->
                guard "rename" r;
                if not strict then begin
                  stain src;
                  stain dst
                end
          end
      | Truncate (f, n) -> (
          let p = file_paths.(f) in
          if !armed then stain p;
          let size = n * 53 in
          match F.truncate t p size with
          | Ok () -> (
              match Hashtbl.find_opt spec.files p with
              | Some s -> Hashtbl.replace spec.files p (resize s size)
              | None -> if not strict then stain p)
          | Error Errno.ENOENT -> ()
          | Error _ as r ->
              guard "truncate" r;
              if not strict then stain p)
      | Write (f, o, l) -> (
          let p = file_paths.(f) in
          if !armed then stain p;
          match F.open_ t p Fs.Rdwr with
          | Error Errno.ENOENT -> ()
          | Error _ as r ->
              guard "open" r;
              if not strict then stain p
          | Ok fd ->
              let off = o * 97 in
              let data = chunk f off (1 + (l * 53)) in
              (match F.write t fd ~off (Bytes.of_string data) with
              | Ok n when n = String.length data -> (
                  match Hashtbl.find_opt spec.files p with
                  | Some s -> Hashtbl.replace spec.files p (splice s off data)
                  | None -> if not strict then stain p)
              | Ok _ ->
                  if strict then Alcotest.failf "fault-free short write on %s" p;
                  stain p
              | Error _ as r ->
                  guard "write" r;
                  if not strict then stain p);
              ignore (F.close t fd))
      | Fsync f -> (
          let p = file_paths.(f) in
          (* A commit flushes shared metadata: running one inside a
             fault window gives up the whole spec (DZero brands lose
             checkpoint writes silently). *)
          if !armed then taint_all := true;
          match F.open_ t p Fs.Rd with
          | Error _ -> ()
          | Ok fd ->
              (match F.fsync t fd with
              | Ok () -> ()
              | Error _ as r ->
                  guard "fsync" r;
                  if not strict then taint_all := true);
              ignore (F.close t fd))
      | Sync -> (
          if !armed then taint_all := true;
          match F.sync t with
          | Ok () -> ()
          | Error _ as r ->
              guard "sync" r;
              if not strict then taint_all := true))
    ops;
  Fault.disarm_all inj

(* Full: stat + exact contents. Shape: the journaled metadata only —
   existence and size (what writeback mode still owes after a crash
   that outran its checkpoint). *)
type strictness = Full | Shape

let agree ~what strictness (Fs.Boxed ((module F), t)) spec =
  Hashtbl.iter
    (fun path contents ->
      match F.stat t path with
      | Error e ->
          Alcotest.failf "%s: %s missing: %s" what path (Errno.to_string e)
      | Ok st ->
          if st.Fs.st_size <> String.length contents then
            Alcotest.failf "%s: %s size %d, spec says %d" what path
              st.Fs.st_size (String.length contents);
          if strictness = Full && String.length contents > 0 then begin
            let fd = ok (F.open_ t path Fs.Rd) in
            let data = ok (F.read t fd ~off:0 ~len:(String.length contents)) in
            ignore (F.close t fd);
            if Bytes.to_string data <> contents then
              Alcotest.failf "%s: %s contents differ from spec" what path
          end)
    spec.files;
  Hashtbl.iter
    (fun path () ->
      match F.stat t path with
      | Ok st when st.Fs.st_kind = Fs.Directory -> ()
      | Ok _ -> Alcotest.failf "%s: %s is not a directory" what path
      | Error e ->
          Alcotest.failf "%s: dir %s missing: %s" what path (Errno.to_string e))
    spec.dirs;
  Array.iter
    (fun path ->
      if not (Hashtbl.mem spec.files path) then
        match F.stat t path with
        | Error Errno.ENOENT -> ()
        | Error e ->
            Alcotest.failf "%s: %s: expected ENOENT, got %s" what path
              (Errno.to_string e)
        | Ok _ -> Alcotest.failf "%s: %s exists but spec says deleted" what path)
    file_paths;
  Array.iter
    (fun path ->
      if not (Hashtbl.mem spec.dirs path) then
        match F.stat t path with
        | Error Errno.ENOENT -> ()
        | Error e ->
            Alcotest.failf "%s: %s: expected ENOENT, got %s" what path
              (Errno.to_string e)
        | Ok _ -> Alcotest.failf "%s: %s exists but spec says absent" what path)
    dir_paths

(* --- leg 1: fault-free, live and across a clean remount ---------------- *)

let prop_quiet name brand =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s agrees with the spec-state (fault-free)" name)
    ~count:40 (ops_arb quiet_gen)
    (fun ops ->
      let inj, dev, (Fs.Boxed ((module F), t) as fs) = fresh brand in
      let spec = spec_create () in
      let taint = Hashtbl.create 4 and taint_all = ref false in
      apply_ops (module F) t ~inj ~spec ~strict:true ~taint ~taint_all ops;
      agree ~what:(name ^ " live") Full fs spec;
      ok (F.unmount t);
      agree ~what:(name ^ " remounted") Full (ok (Fs.mount brand dev)) spec;
      true)

(* --- leg 2: crash agreement, mode-aware -------------------------------- *)

let prop_crash name brand mode =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s agrees with the spec-state across a crash" name)
    ~count:40
    (QCheck.pair (ops_arb quiet_gen) QCheck.bool)
    (fun (ops, sync_barrier) ->
      let inj, dev, (Fs.Boxed ((module F), t)) = fresh brand in
      let spec = spec_create () in
      let taint = Hashtbl.create 4 and taint_all = ref false in
      apply_ops (module F) t ~inj ~spec ~strict:true ~taint ~taint_all ops;
      (* The barrier: sync checkpoints in every mode; fsync only
         commits, which is where the modes come apart. *)
      let checkpointed = sync_barrier || Hashtbl.length spec.files = 0 in
      if checkpointed then ok (F.sync t)
      else begin
        let some =
          Hashtbl.fold (fun p _ acc -> min p acc) spec.files "\xff"
        in
        let fd = ok (F.open_ t some Fs.Rd) in
        ok (F.fsync t fd);
        ignore (F.close t fd)
      end;
      (* Crash: remount with no unmount; recovery replays the log. *)
      let fs2 = ok (Fs.mount brand dev) in
      let strictness =
        if (not checkpointed) && mode = Jrnl.Writeback then Shape else Full
      in
      agree ~what:(name ^ " post-crash") strictness fs2 spec;
      true)

(* --- leg 3: fault injection -------------------------------------------- *)

let prop_faults name brand =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "%s under random faults: untainted files read true or error" name)
    ~count:50 (ops_arb faulty_gen)
    (fun ops ->
      let inj, _dev, (Fs.Boxed ((module F), t)) = fresh brand in
      let spec = spec_create () in
      let taint = Hashtbl.create 8 and taint_all = ref false in
      (try
         apply_ops (module F) t ~inj ~spec ~strict:false ~taint ~taint_all ops;
         if not !taint_all then
           Hashtbl.iter
             (fun path contents ->
               if not (Hashtbl.mem taint path) then
                 match F.stat t path with
                 | Error _ -> () (* detected: acceptable *)
                 | Ok st -> (
                     if st.Fs.st_size <> String.length contents then
                       Alcotest.failf
                         "%s: untainted %s has silently wrong size" name path;
                     if String.length contents > 0 then
                       match F.open_ t path Fs.Rd with
                       | Error _ -> ()
                       | Ok fd ->
                           (match
                              F.read t fd ~off:0
                                ~len:(String.length contents)
                            with
                           | Error _ -> () (* detected: acceptable *)
                           | Ok data ->
                               if Bytes.to_string data <> contents then
                                 Alcotest.failf
                                   "%s: SILENT WRONG DATA in untainted %s"
                                   name path);
                           ignore (F.close t fd)))
             spec.files
       with Klog.Panic _ ->
         (* A documented failure policy (JFS halts when the journal
            superblock write fails); the machine stopped rather than
            lied. *)
         ());
      true)

(* --- leg 4: crash-state exploration over lib/crash --------------------- *)

let t_crash_exploration () =
  List.iter
    (fun (name, brand, mode) ->
      let r = Explore.explore ~jobs:2 ~max_states:200 brand in
      check Alcotest.int
        (name ^ " mounts in every crash state")
        0
        (Explore.count r Explore.Unmountable);
      check Alcotest.int (name ^ " never panics in recovery") 0
        (Explore.count r Explore.Panic);
      if name = "ixt3" then
        check Alcotest.int "ixt3 survives every crash state" 0
          (List.length r.Explore.violations);
      if mode = Jrnl.Writeback then
        check Alcotest.bool
          "writeback loses un-checkpointed data under reordered crashes" true
          (Explore.count r Explore.Data_loss >= 1))
    (functor_brands @ batched_brands)

(* --- the borrowing contract ---------------------------------------------- *)

(* Reads borrow: a brand's read returns the cache's buffer itself, and
   only a site that modifies what it read takes a private copy. A lost
   copy changes nothing on disk — the in-place change is the one the
   journal is about to record — so no golden can see it. This device
   wrapper can: once mount has returned, every buffer handed to
   [read_into] is a cache fill, and it is recorded with its digest.
   After each op, every recorded buffer must still match its digest. *)
let t_borrowing name brand () =
  let rand = Random.State.make [| 4099 |] in
  List.iter
    (fun ops ->
      let watching = ref false and lent = ref [] in
      let wrap below =
        let read_into b buf =
          let r = below.Dev.read_into b buf in
          if !watching && Result.is_ok r then
            lent := (b, buf, Digest.bytes buf) :: !lent;
          r
        in
        { below with Dev.read_into }
      in
      let inj, _, Fs.Boxed ((module F), t) = fresh ~wrap brand in
      watching := true;
      let spec = spec_create () in
      let taint = Hashtbl.create 4 and taint_all = ref false in
      List.iteri
        (fun i op ->
          apply_ops (module F) t ~inj ~spec ~strict:true ~taint ~taint_all
            [ op ];
          List.iter
            (fun (b, buf, digest) ->
              if not (Digest.equal (Digest.bytes buf) digest) then
                Alcotest.failf
                  "%s: op %d (%s) changed the cache's buffer of block %d" name i
                  (print_op op) b)
            !lent)
        ops)
    QCheck.Gen.(generate ~rand ~n:20 (list_repeat 60 quiet_gen))

(* --- directed: the writeback window, data-journal protection ----------- *)

let t_writeback_window () =
  (* The same fsync-then-crash sequence: ordered wrote the data home
     already, data-journal carries it in the log, writeback committed
     only the metadata — the file survives in shape but not in
     content. *)
  let survived brand =
    let _, dev, (Fs.Boxed ((module F), t)) = fresh brand in
    let body = chunk 1 0 3000 in
    let fd = ok (F.creat t "/w") in
    ignore (ok (F.write t fd ~off:0 (Bytes.of_string body)));
    ok (F.fsync t fd);
    ignore (F.close t fd);
    let (Fs.Boxed ((module F2), t2)) = ok (Fs.mount brand dev) in
    check Alcotest.int "metadata journaled: size survives" 3000
      (ok (F2.stat t2 "/w")).Fs.st_size;
    match F2.open_ t2 "/w" Fs.Rd with
    | Error _ -> false
    | Ok fd -> (
        match F2.read t2 fd ~off:0 ~len:3000 with
        | Error _ -> false
        | Ok data -> Bytes.to_string data = body)
  in
  check Alcotest.bool "ordered keeps fsync'd data" true
    (survived Iron_ext3.Ext3.std);
  check Alcotest.bool "data-journal keeps fsync'd data" true
    (survived Iron_ext3.Modes.data);
  check Alcotest.bool "writeback loses un-checkpointed data" false
    (survived Iron_ext3.Modes.writeback)

(* --- directed: the batching counters tell the truth -------------------- *)

let t_batch_counters () =
  (* Drive the same little workload under each tuning and read the
     engine's own account of what it did: default tuning coalesces and
     defers, an eager window flushes early, a watermark checkpoints
     between barriers. *)
  let counters brand =
    let obs = Obs.create () in
    let d =
      Memdisk.create
        ~params:
          { Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 55 }
        ()
    in
    Memdisk.set_time_model d false;
    let dev = Dev.observe obs (Memdisk.dev d) in
    Obs.with_ambient obs (fun () ->
        ok (Fs.mkfs brand dev);
        let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
        let fd = ok (F.creat t "/gc") in
        for i = 0 to 7 do
          ignore (ok (F.write t fd ~off:(i * 1024) (Bytes.make 1024 'g')));
          ok (F.fsync t fd)
        done;
        ignore (F.close t fd);
        ok (F.unmount t));
    let n path =
      match List.assoc_opt path (Obs.snapshot obs) with
      | Some (Obs.Counter n) -> n
      | _ -> 0
    in
    ( n "jrnl.group_commit.coalesced",
      n "jrnl.group_commit.window_flush",
      n "jrnl.checkpoint.batched" )
  in
  let coalesced, flushes, _ = counters Iron_ext3.Ext3.std in
  check Alcotest.bool "default tuning coalesces" true (coalesced > 0);
  check Alcotest.int "default tuning never flushes a window early" 0 flushes;
  let _, flushes, _ =
    counters
      (Iron_ext3.Ext3.brand Iron_ext3.Profile.{ ext3 with tuning = eager_window })
  in
  check Alcotest.bool "eager window flushes early" true (flushes > 0);
  let _, _, batched =
    counters
      (Iron_ext3.Ext3.brand Iron_ext3.Profile.{ ext3 with tuning = watermark })
  in
  check Alcotest.bool "watermark checkpoints between barriers" true (batched > 0)

(* --- satellite: unified jrnl spans with device-clock timestamps -------- *)

let journaling_brands =
  [
    ("ext3", Iron_ext3.Ext3.std);
    ("ixt3", Iron_ext3.Ext3.ixt3);
    ("ext3-writeback", Iron_ext3.Modes.writeback);
    ("ext3-data", Iron_ext3.Modes.data);
    ("jfs", Iron_jfs.Jfs.brand);
    ("reiserfs", Iron_reiserfs.Reiserfs.brand);
  ]

let t_spans name brand () =
  let obs = Obs.create () in
  let d =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 2048; seed = 33 }
      ()
  in
  (* The time model stays ON: span timestamps must come from the device
     clock, and Dev.observe installs it into the context. *)
  let dev = Dev.observe obs (Memdisk.dev d) in
  Obs.with_ambient obs (fun () ->
      ok (Fs.mkfs brand dev);
      let (Fs.Boxed ((module F), t)) = ok (Fs.mount brand dev) in
      let fd = ok (F.creat t "/span") in
      ignore (ok (F.write t fd ~off:0 (Bytes.of_string "observable")));
      ok (F.fsync t fd);
      ignore (F.close t fd);
      (* Crash-remount: mount replays the journal under a recover span. *)
      let (Fs.Boxed ((module F2), t2)) = ok (Fs.mount brand dev) in
      ignore (F2.unmount t2));
  let jrnl n =
    List.filter
      (fun s -> s.Obs.subsystem = "jrnl" && s.Obs.name = n)
      (Obs.spans obs)
  in
  check Alcotest.bool (name ^ " emits jrnl.commit") true (jrnl "commit" <> []);
  check Alcotest.bool (name ^ " emits jrnl.recover") true (jrnl "recover" <> []);
  check Alcotest.bool
    (name ^ " span timestamps carry the device clock")
    true
    (List.exists (fun s -> s.Obs.t0 > 0.) (jrnl "commit" @ jrnl "recover"))

(* Fault-free PostMark-style churn with a read-back oracle. Files are
   created, appended, read and deleted, and directories come and go,
   all under the journal; every read is checked against the spec, and
   so is every surviving file across a clean remount. A block freed
   while its image still sits in the journal (an indirect, directory or
   parity block) must neither be served to its next owner nor
   checkpointed over it. *)
let readback_brands =
  [
    ("ext3", Iron_ext3.Ext3.std);
    ("ext3-writeback", Iron_ext3.Modes.writeback);
    ("ext3-data", Iron_ext3.Modes.data);
    ("ixt3", Iron_ext3.Ext3.ixt3);
  ]
  @ List.filter_map
      (fun (p, brand) ->
        let open Iron_ext3.Profile in
        if p.data_checksum && not p.data_parity then
          Some ("ixt3 " ^ variant_label p, brand)
        else None)
      Iron_ixt3.Ixt3.all_variants

let readback brand seed =
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = 4096; seed }
      ()
  in
  Memdisk.set_time_model disk false;
  let dev = Memdisk.dev disk in
  let ok what = function
    | Ok v -> v
    | Error e -> Alcotest.failf "seed %d: %s: %s" seed what (Errno.to_string e)
  in
  ok "mkfs" (Fs.mkfs brand dev);
  let (Fs.Boxed ((module F), t)) = ok "mount" (Fs.mount brand dev) in
  let rng = Iron_util.Prng.create seed in
  let spec = Hashtbl.create 64 and live = ref [] and next = ref 0 in
  let path i = Printf.sprintf "/mail/s%d/f%d" (i mod 10) i in
  let content base spread =
    let b = Bytes.create (base + Iron_util.Prng.int rng spread) in
    Iron_util.Prng.fill_bytes rng b;
    b
  in
  let create () =
    let i = !next in
    incr next;
    let data = content 4096 (28 * 1024) in
    let fd = ok "creat" (F.creat t (path i)) in
    ignore (ok "write" (F.write t fd ~off:0 data));
    ok "close" (F.close t fd);
    Hashtbl.replace spec (path i) data;
    live := i :: !live
  in
  let wrong = ref [] in
  let read_back (type a) (module F : Fs.S with type t = a) (t : a) p =
    let data = Hashtbl.find spec p in
    let fd = ok "open" (F.open_ t p Fs.Rd) in
    let got = ok "read" (F.read t fd ~off:0 ~len:(Bytes.length data)) in
    ok "close" (F.close t fd);
    if not (Bytes.equal got data) then wrong := p :: !wrong
  in
  let pick () = List.nth !live (Iron_util.Prng.int rng (List.length !live)) in
  ok "mkdir" (F.mkdir t "/mail");
  for d = 0 to 9 do
    ok "mkdir" (F.mkdir t (Printf.sprintf "/mail/s%d" d))
  done;
  for _ = 1 to 40 do
    create ()
  done;
  ok "sync" (F.sync t);
  for n = 1 to 300 do
    (match Iron_util.Prng.int rng 5 with
    | 0 -> create ()
    | 1 when !live <> [] ->
        let i = pick () in
        live := List.filter (( <> ) i) !live;
        Hashtbl.remove spec (path i);
        ok "unlink" (F.unlink t (path i))
    | 2 when !live <> [] -> read_back (module F) t (path (pick ()))
    | 3 when !live <> [] ->
        let p = path (pick ()) in
        let old = Hashtbl.find spec p in
        let more = content 512 4096 in
        let fd = ok "open" (F.open_ t p Fs.Wr) in
        ignore (ok "append" (F.write t fd ~off:(Bytes.length old) more));
        ok "close" (F.close t fd);
        Hashtbl.replace spec p (Bytes.cat old more)
    | 4 ->
        let d = Printf.sprintf "/tmp%d" n in
        ok "mkdir" (F.mkdir t d);
        ok "rmdir" (F.rmdir t d)
    | _ -> ());
    if n mod 100 = 0 then ok "sync" (F.sync t)
  done;
  ok "unmount" (F.unmount t);
  let (Fs.Boxed ((module F), t)) = ok "remount" (Fs.mount brand dev) in
  Hashtbl.iter (fun p _ -> read_back (module F) t p) spec;
  ok "unmount" (F.unmount t);
  check
    Alcotest.(list string)
    (Printf.sprintf "seed %d: files read back wrong" seed)
    [] (List.sort_uniq compare !wrong)

let t_readback brand () = List.iter (readback brand) [ 0; 1; 2 ]

(* --- image digests ---------------------------------------------------- *)

(* A bare engine over a 64-block disk: block 0 holds the journal
   superblock, 1-15 the log, the rest plain data. *)
let digest_engine () =
  let dev =
    Memdisk.dev
      (Memdisk.create
         ~params:{ Memdisk.default_params with Memdisk.num_blocks = 64; seed = 1 }
         ())
  in
  Jrnl.create
    {
      Jrnl.tag = "test";
      mode = Jrnl.Ordered;
      iron = Jrnl.stock_iron;
      tuning = Jrnl.default_tuning;
      dev;
      cache = Bcache.create dev;
      klog = Klog.create ();
      kinds =
        (fun b ->
          if b = 0 then Iron_jrnl.Kind.Jsb
          else if b < 16 then Iron_jrnl.Kind.Jdata
          else Iron_jrnl.Kind.Data);
      geo = { Jrnl.jsb = 0; jfirst = 1; jend = 16; num_blocks = 64 };
      journaled = (fun _ -> true);
    }
    ~seq:1

let blk = 20
let bytes_of c = Bytes.make 4096 c

let image j =
  match Jrnl.find j blk with Some i -> i | None -> Alcotest.fail "no image"

let digest_is what j buf c =
  check
    Alcotest.(option string)
    what
    (Some (Iron_util.Sha1.to_hex (Iron_util.Sha1.digest (bytes_of c))))
    (Option.map Iron_util.Sha1.to_hex (Jrnl.digest j blk buf))

let no_digest what j buf =
  check Alcotest.bool what true (Jrnl.digest j blk buf = None)

let same_buffer what a b = check Alcotest.bool what true (a == b)

(* The arena hands a released image's buffer straight back for the next
   image's bytes: a digest kept with the buffer would be stale. *)
let t_digest_restage () =
  let j = digest_engine () in
  Jrnl.stage j blk (bytes_of 'a');
  let first = image j in
  digest_is "staged image" j first 'a';
  no_digest "a copy gets no answer" j (Bytes.copy first);
  Jrnl.stage j blk (bytes_of 'b');
  let second = image j in
  same_buffer "re-stage recycled the buffer" first second;
  digest_is "re-staged image" j second 'b'

let t_digest_revoke () =
  let j = digest_engine () in
  Jrnl.stage j blk (bytes_of 'a');
  let first = image j in
  digest_is "staged image" j first 'a';
  Jrnl.revoke j blk;
  no_digest "a revoked image gets no answer" j first;
  Jrnl.stage j blk (bytes_of 'b');
  let second = image j in
  same_buffer "re-stage recycled the revoked buffer" first second;
  digest_is "re-staged image" j second 'b'

let t_digest_commit () =
  let j = digest_engine () in
  Jrnl.stage j blk (bytes_of 'a');
  let first = image j in
  digest_is "staged image" j first 'a';
  ok (Jrnl.commit j);
  same_buffer "commit moved the image to the checkpoint list" first (image j);
  digest_is "committed image" j first 'a';
  Jrnl.stage j blk (bytes_of 'b');
  let second = image j in
  digest_is "staged over a committed image" j second 'b';
  no_digest "the shadowed committed image gets no answer" j first;
  ok (Jrnl.commit j);
  same_buffer "the newer image replaced the older" second (image j);
  digest_is "committed again" j second 'b'

let t_digest_checkpoint () =
  let j = digest_engine () in
  Jrnl.stage j blk (bytes_of 'a');
  ok (Jrnl.commit j);
  let first = image j in
  digest_is "committed image" j first 'a';
  Jrnl.checkpoint j;
  check Alcotest.bool "checkpoint dropped the image" true (Jrnl.find j blk = None);
  no_digest "a checkpointed image gets no answer" j first;
  Jrnl.stage j blk (bytes_of 'b');
  let second = image j in
  same_buffer "re-stage recycled the checkpointed buffer" first second;
  digest_is "re-staged image" j second 'b'

let suites =
  [
    ( "jrnl.refinement",
      List.concat_map
        (fun (name, brand, mode) ->
          [
            qtest 1013 (prop_quiet name brand);
            qtest 2027 (prop_crash name brand mode);
            qtest 3041 (prop_faults name brand);
          ])
        (functor_brands @ batched_brands @ bespoke_brands)
      @ [
          Alcotest.test_case "writeback window vs data-journal" `Quick
            t_writeback_window;
          Alcotest.test_case "batching counters tell the truth" `Quick
            t_batch_counters;
        ] );
    ( "jrnl.borrowing",
      List.map
        (fun (name, brand, _) ->
          Alcotest.test_case (name ^ " never writes a borrowed buffer") `Quick
            (t_borrowing name brand))
        (functor_brands @ bespoke_brands) );
    ( "jrnl.digest",
      [
        Alcotest.test_case "re-stage recycles the buffer, not the digest" `Quick
          t_digest_restage;
        Alcotest.test_case "revoke and re-stage" `Quick t_digest_revoke;
        Alcotest.test_case "commit carries the digest" `Quick t_digest_commit;
        Alcotest.test_case "checkpoint and re-stage" `Quick t_digest_checkpoint;
      ] );
    ( "jrnl.readback",
      List.map
        (fun (name, brand) ->
          Alcotest.test_case (name ^ " reads back") `Quick (t_readback brand))
        readback_brands );
    ( "jrnl.crash-exploration",
      [
        Alcotest.test_case "all functor brands, durable-map agreement" `Slow
          t_crash_exploration;
      ] );
    ( "jrnl.obs",
      List.map
        (fun (name, brand) ->
          Alcotest.test_case (name ^ " spans") `Quick (t_spans name brand))
        journaling_brands );
  ]
