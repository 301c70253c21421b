module Codec = Iron_util.Codec

let ( let* ) = Result.bind

type attr = {
  kind : Fs.kind option;
  links : int;
  perms : int;
  uid : int;
  gid : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
  target : string;
}

module type STORE = sig
  type t
  type node
  type dir

  val fs_name : string
  val block_types : string list
  val classifier : (int -> bytes) -> int -> string
  val corrupt_field : string -> (bytes -> unit) option
  val mkfs : Iron_disk.Dev.t -> (unit, Errno.t) result
  val mount : Iron_disk.Dev.t -> (t, Errno.t) result
  val unmount : t -> (unit, Errno.t) result
  val sync : t -> (unit, Errno.t) result
  val fsync : t -> (unit, Errno.t) result
  val statfs : t -> Fs.statfs
  val dev : t -> Iron_disk.Dev.t
  val klog : t -> Klog.t
  val is_readonly : t -> bool
  val root : int
  val read : t -> int -> (node, Errno.t) result
  val write : t -> int -> node -> (unit, Errno.t) result
  val attr : node -> attr
  val with_attr : node -> attr -> node
  val open_dir : t -> int -> node option -> (dir, Errno.t) result
  val entries : t -> dir -> ((string * int) list, Errno.t) result
  val add_entry : t -> dir -> string -> int -> (unit, Errno.t) result
  val remove_entry : t -> dir -> string -> (unit, Errno.t) result
  val reparent : t -> int -> node -> int -> (unit, Errno.t) result
  val alloc : t -> parent:int -> (int, Errno.t) result
  val create : t -> int -> parent:int -> attr -> (unit, Errno.t) result
  val destroy : t -> int -> node -> (unit -> (unit, Errno.t) result, Errno.t) result
  val write_super : t -> (unit, Errno.t) result
  val inline : t -> int -> (string option, Errno.t) result
  val read_block : t -> int -> node -> int -> (bytes, Errno.t) result
  val write_data : t -> int -> node -> off:int -> bytes -> (node, Errno.t) result

  val truncate :
    t -> int -> node -> int -> (node * (unit -> (unit, Errno.t) result), Errno.t) result

  val txn : t -> (unit -> ('a, Errno.t) result) -> ('a, Errno.t) result
  val walk_free : t -> child:bool -> int -> unit
  val open_check : t -> int -> node -> (unit, Errno.t) result
  val zero_links : t -> int -> (unit, Errno.t) result
  val rename_frees : bool
end

let kind_code = function
  | None -> 0
  | Some Fs.Regular -> 1
  | Some Fs.Directory -> 2
  | Some Fs.Symlink -> 3

let kind_of_code = function
  | 1 -> Some Fs.Regular
  | 2 -> Some Fs.Directory
  | 3 -> Some Fs.Symlink
  | _ -> None

let put_entries w entries =
  Codec.put_u16 w (List.length entries);
  List.iter
    (fun (name, o) ->
      Codec.put_u32 w o;
      Codec.put_u16 w (String.length name);
      Codec.put_string w name)
    entries

let get_entries ~cap r =
  let n = Codec.get_u16 r in
  if n > cap then None
  else
    let rec go k acc =
      if k = 0 then Some (List.rev acc)
      else
        let o = Codec.get_u32 r in
        let len = Codec.get_u16 r in
        if len > Codec.remaining r then None
        else
          let name = Codec.get_string r len in
          go (k - 1) ((name, o) :: acc)
    in
    go n []

let encode_entries ?magic entries buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Option.iter (Codec.put_u32 w) magic;
  put_entries w entries

let decode_entries ?magic ~cap buf =
  try
    let r = Codec.reader buf in
    match magic with
    | Some m when Codec.get_u32 r <> m -> None
    | Some _ | None -> get_entries ~cap r
  with Codec.Decode_error _ -> None

let each_block ~bs ~off ~len f =
  let rec go pos =
    if pos >= len then Ok ()
    else
      let fblock = (off + pos) / bs and boff = (off + pos) mod bs in
      let n = min (bs - boff) (len - pos) in
      let* () = f fblock boff pos n in
      go (pos + n)
  in
  go 0

let patch ~bs data ~boff ~pos ~n old =
  if boff = 0 && n = bs then Ok (Bytes.sub data pos n)
  else
    let* buf = old () in
    Bytes.blit data pos buf boff n;
    Ok buf

module Make (S : STORE) = struct
  let fs_name = S.fs_name
  let block_types = S.block_types
  let classifier = S.classifier
  let corrupt_field = S.corrupt_field

  type fdesc = { obj : int; mode : Fs.open_mode }

  type t = {
    st : S.t;
    ops : S.node Resolver.ops;
    fds : fdesc Fdtable.t;
    mutable cwd : int;
    mutable root : int;
  }

  let mkfs = S.mkfs

  (* A directory's entries, its node already read. *)
  let entries st o n =
    let* d = S.open_dir st o (Some n) in
    S.entries st d

  let mount dev =
    let* st = S.mount dev in
    let ops =
      {
        Resolver.node = S.read st;
        kind =
          (fun ~child o n ->
            match (S.attr n).kind with
            | Some k -> Ok k
            | None ->
                S.walk_free st ~child o;
                Error Errno.EIO);
        target = (fun n -> (S.attr n).target);
        lookup =
          (fun dir n name ->
            let* es = entries st dir n in
            match List.assoc_opt name es with
            | Some o -> Ok o
            | None -> Error Errno.ENOENT);
      }
    in
    Ok { st; ops; fds = Fdtable.create (); cwd = S.root; root = S.root }

  let unmount t = S.unmount t.st
  let klog t = S.klog t.st
  let is_readonly t = S.is_readonly t.st
  let statfs t = Ok (S.statfs t.st)
  let sync t = S.sync t.st
  let now t = int_of_float ((S.dev t.st).Iron_disk.Dev.now () /. 1000.)
  let bs t = (S.dev t.st).Iron_disk.Dev.block_size

  let resolve t ?follow_last path =
    Resolver.resolve t.ops ~root:t.root ~cwd:t.cwd ?follow_last path

  let resolve_parent t path =
    Resolver.resolve_parent t.ops ~root:t.root ~cwd:t.cwd path

  let lookup t ?follow_last path =
    let* o = resolve t ?follow_last path in
    let* n = S.read t.st o in
    Ok (o, n, S.attr n)

  let update t o n f = S.write t.st o (S.with_attr n (f (S.attr n)))
  let only_dots es = List.for_all (fun (n, _) -> n = "." || n = "..") es

  let access t path =
    let* _ = resolve t path in
    Ok ()

  let enter t path set =
    let* o, _, a = lookup t path in
    if a.kind = Some Fs.Directory then Ok (set o) else Error Errno.ENOTDIR

  let chdir t path = enter t path (fun o -> t.cwd <- o)

  let chroot t path =
    enter t path (fun o ->
        t.root <- o;
        t.cwd <- o)

  let stat_of o a =
    {
      Fs.st_ino = o;
      st_kind = Option.value ~default:Fs.Regular a.kind;
      st_size = a.size;
      st_links = a.links;
      st_mode = a.perms;
      st_uid = a.uid;
      st_gid = a.gid;
      st_atime = float_of_int a.atime;
      st_mtime = float_of_int a.mtime;
      st_ctime = float_of_int a.ctime;
    }

  let stat t path =
    let* o, _, a = lookup t path in
    Ok (stat_of o a)

  let lstat t path =
    let* o, _, a = lookup t ~follow_last:false path in
    Ok (stat_of o a)

  let open_ t path mode =
    let* o, n, a = lookup t path in
    match a.kind with
    | Some Fs.Directory when mode <> Fs.Rd -> Error Errno.EISDIR
    | kind ->
        let* () = S.open_check t.st o n in
        if kind = None then Error Errno.EIO
        else Ok (Fdtable.alloc t.fds { obj = o; mode })

  let close t fd = Fdtable.close t.fds fd

  let readlink t path =
    let* _, _, a = lookup t ~follow_last:false path in
    if a.kind = Some Fs.Symlink then Ok a.target else Error Errno.EINVAL

  let getdirentries t path =
    let* o, n, a = lookup t path in
    if a.kind <> Some Fs.Directory then Error Errno.ENOTDIR else entries t.st o n

  (* The new object's times and the parent's mtime and ctime are one
     instant, taken once the store has found a free id. *)
  let create_node t path kind ~perms ~target =
    S.txn t.st @@ fun () ->
    let* dino, name = resolve_parent t path in
    let* dnode = S.read t.st dino in
    if (S.attr dnode).kind <> Some Fs.Directory then Error Errno.ENOTDIR
    else
      let* d = S.open_dir t.st dino (Some dnode) in
      let* es = S.entries t.st d in
      if List.mem_assoc name es then Error Errno.EEXIST
      else
        let* o = S.alloc t.st ~parent:dino in
        let now = now t in
        let is_dir = kind = Fs.Directory in
        let* () =
          S.create t.st o ~parent:dino
            {
              kind = Some kind;
              links = (if is_dir then 2 else 1);
              perms;
              uid = 0;
              gid = 0;
              size = 0;
              atime = now;
              mtime = now;
              ctime = now;
              target;
            }
        in
        let* () = S.add_entry t.st d name o in
        let* dnode = S.read t.st dino in
        let* () =
          update t dino dnode (fun a ->
              {
                a with
                links = (if is_dir then a.links + 1 else a.links);
                mtime = now;
                ctime = now;
              })
        in
        let* () = S.write_super t.st in
        Ok o

  let remove t path ~dir =
    let* dino, name = resolve_parent t path in
    let* d = S.open_dir t.st dino None in
    let* es = S.entries t.st d in
    match List.assoc_opt name es with
    | None -> Error Errno.ENOENT
    | Some o -> (
        let* n = S.read t.st o in
        let a = S.attr n in
        match (dir, a.kind) with
        | true, k when k <> Some Fs.Directory -> Error Errno.ENOTDIR
        | false, Some Fs.Directory -> Error Errno.EISDIR
        | _ ->
            let* () =
              if not dir then Ok ()
              else
                let* ces = entries t.st o n in
                if only_dots ces then Ok () else Error Errno.ENOTEMPTY
            in
            let* () = if a.links = 0 then S.zero_links t.st o else Ok () in
            let now = now t in
            let* () = S.remove_entry t.st d name in
            let links = a.links - if dir then 2 else 1 in
            if (dir && links <= 1) || ((not dir) && links <= 0) then begin
              let* late = S.destroy t.st o n in
              let* dnode = S.read t.st dino in
              let* () =
                update t dino dnode (fun a ->
                    {
                      a with
                      links = (if dir then a.links - 1 else a.links);
                      mtime = now;
                      ctime = now;
                    })
              in
              let* () = S.write_super t.st in
              late ()
            end
            else
              let* () = S.write t.st o (S.with_attr n { a with links; ctime = now }) in
              let* dnode = S.read t.st dino in
              update t dino dnode (fun a -> { a with mtime = now; ctime = now }))

  let creat t path =
    let* o = create_node t path Fs.Regular ~perms:0o644 ~target:"" in
    Ok (Fdtable.alloc t.fds { obj = o; mode = Fs.Rdwr })

  let symlink t target linkpath =
    let* _ = create_node t linkpath Fs.Symlink ~perms:0o777 ~target in
    Ok ()

  let mkdir t path =
    let* _ = create_node t path Fs.Directory ~perms:0o755 ~target:"" in
    Ok ()

  let rmdir t path = S.txn t.st (fun () -> remove t path ~dir:true)

  (* A path with no names is the root or the cwd, a directory: EISDIR,
     Linux's answer for [/]. (rmdir's is the walk's EINVAL.) *)
  let unlink t path =
    S.txn t.st @@ fun () ->
    if Path.split path = [] then Error Errno.EISDIR else remove t path ~dir:false

  let link t existing newpath =
    S.txn t.st @@ fun () ->
    let* o, n, a = lookup t existing in
    if a.kind = Some Fs.Directory then Error Errno.EISDIR
    else
      let* dino, name = resolve_parent t newpath in
      let* d = S.open_dir t.st dino None in
      let* es = S.entries t.st d in
      if List.mem_assoc name es then Error Errno.EEXIST
      else
        let* () = S.add_entry t.st d name o in
        S.write t.st o (S.with_attr n { a with links = a.links + 1; ctime = now t })

  (* A name already at [dst] goes first: as an unlink would take it,
     or, where the store frees it in place, with one link, and with its
     object when that was the last. Then the entry moves, and a
     directory that changed parent takes its new [".."] and the two
     parents' link counts. *)
  let rename t src dst =
    S.txn t.st @@ fun () ->
    let* sdino, sname = resolve_parent t src in
    let* sd = S.open_dir t.st sdino None in
    let* ses = S.entries t.st sd in
    match List.assoc_opt sname ses with
    | None -> Error Errno.ENOENT
    | Some o ->
        let* ddino, dname = resolve_parent t dst in
        let* dd = S.open_dir t.st ddino None in
        let* des = S.entries t.st dd in
        let* () =
          match List.assoc_opt dname des with
          | Some old when old <> o -> (
              let* on = S.read t.st old in
              let a = S.attr on in
              match a.kind with
              | Some Fs.Directory -> Error Errno.EISDIR
              | Some _ | None ->
                  if not S.rename_frees then remove t dst ~dir:false
                  else
                    let* () = S.remove_entry t.st dd dname in
                    if a.links <= 1 then Result.map ignore (S.destroy t.st old on)
                    else S.write t.st old (S.with_attr on { a with links = a.links - 1 }))
          | Some _ | None -> Ok ()
        in
        let* sd = S.open_dir t.st sdino None in
        let* () = S.remove_entry t.st sd sname in
        let* dd = S.open_dir t.st ddino None in
        let* () = S.add_entry t.st dd dname o in
        let* n = S.read t.st o in
        if (S.attr n).kind = Some Fs.Directory && sdino <> ddino then begin
          let* () = S.reparent t.st o n ddino in
          let* sn = S.read t.st sdino in
          let* () = update t sdino sn (fun a -> { a with links = a.links - 1 }) in
          let* dn = S.read t.st ddino in
          update t ddino dn (fun a -> { a with links = a.links + 1 })
        end
        else Ok ()

  let read t fd ~off ~len =
    let* f = Fdtable.find t.fds fd in
    let* n = S.read t.st f.obj in
    let len = max 0 (min len ((S.attr n).size - off)) in
    if len = 0 then Ok Bytes.empty
    else
      let* inline = S.inline t.st f.obj in
      match inline with
      | Some s ->
          let out = Bytes.make len '\000' in
          let avail = max 0 (min len (String.length s - off)) in
          if avail > 0 then Bytes.blit_string s off out 0 avail;
          Ok out
      | None ->
          let out = Bytes.create len in
          let* () =
            each_block ~bs:(bs t) ~off ~len (fun fblock boff pos n' ->
                let* data = S.read_block t.st f.obj n fblock in
                Bytes.blit data boff out pos n';
                Ok ())
          in
          Ok out

  let write t fd ~off data =
    let* f = Fdtable.find t.fds fd in
    if f.mode = Fs.Rd then Error Errno.EBADF
    else
      S.txn t.st @@ fun () ->
      let* n0 = S.read t.st f.obj in
      let len = Bytes.length data in
      let* n = S.write_data t.st f.obj n0 ~off data in
      let now = now t in
      let size = max (S.attr n0).size (off + len) in
      let* () = update t f.obj n (fun a -> { a with size; mtime = now; ctime = now }) in
      let* () = S.write_super t.st in
      Ok len

  let truncate t path size =
    S.txn t.st @@ fun () ->
    let* o, n, a = lookup t path in
    if a.kind = Some Fs.Directory then Error Errno.EISDIR
    else
      let* n, late = S.truncate t.st o n size in
      let now = now t in
      let* () = update t o n (fun a -> { a with size; mtime = now; ctime = now }) in
      let* () = S.write_super t.st in
      late ()

  let set_attr t path f =
    S.txn t.st @@ fun () ->
    let* o, n, a = lookup t path in
    S.write t.st o (S.with_attr n (f a))

  let chmod t path perms = set_attr t path (fun a -> { a with perms; ctime = now t })
  let chown t path uid gid = set_attr t path (fun a -> { a with uid; gid; ctime = now t })

  let utimes t path atime mtime =
    set_attr t path (fun a ->
        { a with atime = int_of_float atime; mtime = int_of_float mtime })

  let fsync t fd =
    let* _ = Fdtable.find t.fds fd in
    S.fsync t.st
end
