let ( let* ) = Result.bind

type 'n ops = {
  node : int -> ('n, Errno.t) result;
  kind : child:bool -> int -> 'n -> (Fs.kind, Errno.t) result;
  target : 'n -> string;
  lookup : int -> 'n -> string -> (int, Errno.t) result;
}

let max_symlink_depth = 8

(* Per component: the directory's node, its entry for the name, then
   the child's node, each read once. The walk returns the object it
   ends on and, when it read it, its kind. A path with no components
   reads none: it ends on [root] or [cwd], and only directories become
   either. A symlink's target is walked to its end, followed whatever
   [follow_last] says, which applies to the path's own last name. *)
let walk ops ~root ~cwd ?(follow_last = true) path =
  let rec go dir kind components ~follow_last depth =
    if depth > max_symlink_depth then Error Errno.ELOOP
    else
      match components with
      | [] -> Ok (dir, kind)
      | name :: rest -> (
          let* () = Path.validate_component name in
          let* dnode = ops.node dir in
          match ops.kind ~child:false dir dnode with
          | Error e -> Error e
          | Ok (Fs.Regular | Fs.Symlink) -> Error Errno.ENOTDIR
          | Ok Fs.Directory -> (
              let* child = ops.lookup dir dnode name in
              let* cnode = ops.node child in
              match ops.kind ~child:true child cnode with
              | Error e -> Error e
              | Ok Fs.Symlink when rest <> [] || follow_last ->
                  let target = ops.target cnode in
                  let start = if Path.is_absolute target then root else dir in
                  let* mid, mkind =
                    go start None (Path.split target) ~follow_last:true
                      (depth + 1)
                  in
                  go mid mkind rest ~follow_last (depth + 1)
              | Ok ckind -> go child (Some ckind) rest ~follow_last depth))
  in
  let start = if Path.is_absolute path then root else cwd in
  go start None (Path.split path) ~follow_last 0

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
