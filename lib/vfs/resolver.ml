let ( let* ) = Result.bind

type ops = {
  lookup : int -> string -> (int, Errno.t) result;
  kind_of : int -> (Fs.kind, Errno.t) result;
  readlink_of : int -> (string, Errno.t) result;
}

let max_symlink_depth = 8

(* The walk returns the object it ends on and, when it read it, its
   kind. A path with no components reads none: it ends on [root] or
   [cwd], and only directories become either. *)
let walk ops ~root ~cwd ?(follow_last = true) path =
  let rec go dir kind components depth =
    if depth > max_symlink_depth then Error Errno.ELOOP
    else
      match components with
      | [] -> Ok (dir, kind)
      | name :: rest -> (
          let* () = Path.validate_component name in
          let* dkind = ops.kind_of dir in
          match dkind with
          | Fs.Regular | Fs.Symlink -> Error Errno.ENOTDIR
          | Fs.Directory -> (
              let* child = ops.lookup dir name in
              let* ckind = ops.kind_of child in
              match ckind with
              | Fs.Symlink when rest <> [] || follow_last ->
                  let* target = ops.readlink_of child in
                  let start = if Path.is_absolute target then root else dir in
                  let* mid, mkind =
                    go start None (Path.split target) (depth + 1)
                  in
                  go mid mkind rest (depth + 1)
              | Fs.Regular | Fs.Directory | Fs.Symlink ->
                  go child (Some ckind) rest depth))
  in
  let start = if Path.is_absolute path then root else cwd in
  go start None (Path.split path) 0

let resolve ops ~root ~cwd ?follow_last path =
  Result.map fst (walk ops ~root ~cwd ?follow_last path)

let resolve_parent ops ~root ~cwd path =
  let dir, base = Path.dirname_basename path in
  if base = "" then Error Errno.EINVAL
  else
    let* () = Path.validate_component base in
    let* dino, kind = walk ops ~root ~cwd dir in
    match kind with
    | Some (Fs.Regular | Fs.Symlink) -> Error Errno.ENOTDIR
    | Some Fs.Directory | None -> Ok (dino, base)
