module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno

let ( let* ) = Result.bind

type kind = Ops | Mount_op | Umount_op | Recovery_op

type t = {
  col : char;
  name : string;
  kind : kind;
  run : Fs.boxed -> (unit, Errno.t) result;
  verify : (Fs.boxed -> bool) option;
}

(* ---- helpers over boxed instances --------------------------------- *)

(* [pattern tag n] is [String.init n (fun i -> Char.chr ((i + Char.code
   tag) mod 251))], blitted from one 251-byte period. *)
let period = String.init 251 Char.chr

let pattern tag n =
  let buf = Bytes.create n in
  let pos = ref 0 and k = ref (Char.code tag mod 251) in
  while !pos < n do
    let len = min (n - !pos) (251 - !k) in
    Bytes.blit_string period !k buf !pos len;
    pos := !pos + len;
    k := 0
  done;
  Bytes.unsafe_to_string buf

let put (Fs.Boxed ((module F), t)) path content =
  let* fd = F.creat t path in
  let* _ = F.write t fd ~off:0 (Bytes.of_string content) in
  F.close t fd

let get (Fs.Boxed ((module F), t)) path =
  let* fd = F.open_ t path Fs.Rd in
  let* st = F.stat t path in
  let* data = F.read t fd ~off:0 ~len:st.Fs.st_size in
  let* () = F.close t fd in
  Ok (Bytes.to_string data)

let bs = 4096

(* ---- the standard fixture ------------------------------------------ *)

(* Sizes chosen for the scaled-down geometry (4 direct, 16-wide
   indirect): /mid uses the single indirect block, /large reaches
   double indirection at file block 20. *)
let mid_size = 12 * bs
let large_size = 40 * bs

let fixture (Fs.Boxed ((module F), t) as fs) =
  let* () = F.mkdir t "/d1" in
  let* () = F.mkdir t "/d1/d2" in
  let* () = put fs "/small" (pattern 's' 100) in
  let* () = put fs "/mid" (pattern 'm' mid_size) in
  let* () = put fs "/large" (pattern 'l' large_size) in
  let* () = put fs "/d1/inner" (pattern 'i' 200) in
  let* () = put fs "/d1/d2/deep" (pattern 'd' 100) in
  let* () = put fs "/tolink" (pattern 't' 50) in
  let* () = F.symlink t "/small" "/sym" in
  let* () = put fs "/del" (pattern 'x' (6 * bs)) in
  let* () = put fs "/trunc" (pattern 'y' mid_size) in
  let* () = put fs "/ren" (pattern 'r' 80) in
  let* () = F.mkdir t "/deldir" in
  let* () = F.mkdir t "/rendir" in
  F.sync t

let crash_prep (Fs.Boxed ((module F), t) as fs) =
  let* () = put fs "/crashfile1" (pattern 'c' 300) in
  let* () = F.mkdir t "/crashdir" in
  let* () = put fs "/crashdir/f" (pattern 'k' 100) in
  (* fsync commits the journal without checkpointing: abandoning the
     instance now leaves a crash image whose mount must replay. *)
  let* fd = F.open_ t "/crashfile1" Fs.Rd in
  let* () = F.fsync t fd in
  F.close t fd

(* ---- the twenty columns -------------------------------------------- *)

let ops col name ?verify run = { col; name; kind = Ops; run; verify }

let w_traversal =
  ops 'a' "path traversal" (fun (Fs.Boxed ((module F), t)) ->
      let* _ = F.stat t "/d1/d2/deep" in
      Ok ())

let w_access =
  ops 'b' "access,chdir,chroot,stat,statfs,lstat,open"
    (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.access t "/small" in
      let* () = F.chdir t "/d1" in
      let* () = F.chdir t "/" in
      let* _ = F.stat t "/mid" in
      let* _ = F.statfs t in
      let* _ = F.lstat t "/sym" in
      let* fd = F.open_ t "/large" Fs.Rd in
      F.close t fd)

let w_attr =
  ops 'c' "chmod,chown,utimes" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.chmod t "/small" 0o640 in
      let* () = F.chown t "/small" 3 4 in
      let* () = F.utimes t "/mid" 10.0 20.0 in
      F.sync t)

let w_read =
  {
    col = 'd';
    name = "read";
    kind = Ops;
    run =
      (fun (Fs.Boxed ((module F), t)) ->
        let* fd = F.open_ t "/large" Fs.Rd in
        let* _ = F.read t fd ~off:0 ~len:large_size in
        F.close t fd);
    verify =
      Some
        (fun fs ->
          match get fs "/large" with
          | Ok data -> String.equal data (pattern 'l' large_size)
          | Error _ -> true (* an error is not a silent wrong answer *));
  }

let w_readlink =
  ops 'e' "readlink" (fun (Fs.Boxed ((module F), t)) ->
      let* _ = F.readlink t "/sym" in
      Ok ())

let w_getdirentries =
  ops 'f' "getdirentries" (fun (Fs.Boxed ((module F), t)) ->
      let* entries = F.getdirentries t "/d1" in
      if List.mem_assoc "inner" entries then Ok () else Error Errno.EIO)

let w_creat =
  ops 'g' "creat" (fun (Fs.Boxed ((module F), t) as fs) ->
      let* () = put fs "/fresh" (pattern 'f' 100) in
      F.sync t)

let w_link =
  ops 'h' "link" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.link t "/tolink" "/alias" in
      F.sync t)

let w_mkdir =
  ops 'i' "mkdir" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.mkdir t "/newdir" in
      F.sync t)

let w_rename =
  ops 'j' "rename" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.rename t "/ren" "/rendir/moved" in
      F.sync t)

let w_symlink =
  ops 'k' "symlink" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.symlink t "/mid" "/sym2" in
      F.sync t)

let w_write =
  ops 'l' "write" (fun (Fs.Boxed ((module F), t)) ->
      let* fd = F.open_ t "/mid" Fs.Rdwr in
      let* _ = F.write t fd ~off:(3 * bs) (Bytes.of_string (pattern 'w' (2 * bs))) in
      let* () = F.close t fd in
      F.sync t)

let w_truncate =
  ops 'm' "truncate" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.truncate t "/trunc" 100 in
      F.sync t)

let w_rmdir =
  ops 'n' "rmdir" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.rmdir t "/deldir" in
      F.sync t)

let w_unlink =
  ops 'o' "unlink" (fun (Fs.Boxed ((module F), t)) ->
      let* () = F.unlink t "/del" in
      F.sync t)

let w_mount =
  { col = 'p'; name = "mount"; kind = Mount_op; run = (fun _ -> Ok ()); verify = None }

let w_sync =
  ops 'q' "fsync,sync" (fun (Fs.Boxed ((module F), t) as fs) ->
      let* () = put fs "/syncme" (pattern 'q' 500) in
      let* fd = F.open_ t "/syncme" Fs.Wr in
      let* _ = F.write t fd ~off:0 (Bytes.of_string "head") in
      let* () = F.fsync t fd in
      let* () = F.close t fd in
      F.sync t)

let w_umount =
  {
    col = 'r';
    name = "umount";
    kind = Umount_op;
    run =
      (fun (Fs.Boxed ((module F), t) as fs) ->
        (* Leave work for unmount's checkpoint to do: commit without
           checkpointing. *)
        let* () = put fs "/atexit" (pattern 'u' 300) in
        let* fd = F.open_ t "/atexit" Fs.Rd in
        let* () = F.fsync t fd in
        F.close t fd);
    verify = None;
  }

let w_recovery =
  { col = 's'; name = "FS recovery"; kind = Recovery_op; run = (fun _ -> Ok ()); verify = None }

let w_logwrites =
  ops 't' "log writes" (fun (Fs.Boxed ((module F), t) as fs) ->
      let* () = put fs "/log1" (pattern '1' 200) in
      let* () = F.sync t in
      let* () = put fs "/log2" (pattern '2' 200) in
      let* () = F.mkdir t "/logd" in
      F.sync t)

let all =
  [
    w_traversal; w_access; w_attr; w_read; w_readlink; w_getdirentries;
    w_creat; w_link; w_mkdir; w_rename; w_symlink; w_write; w_truncate;
    w_rmdir; w_unlink; w_mount; w_sync; w_umount; w_recovery; w_logwrites;
  ]

let find col =
  match List.find_opt (fun w -> w.col = col) all with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Workload.find: no column %c" col)
