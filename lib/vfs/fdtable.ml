type 'a t = { table : (int, 'a) Hashtbl.t; mutable next : int }

let create () = { table = Hashtbl.create 16; next = 3 }

let alloc t v =
  let fd = t.next in
  t.next <- fd + 1;
  Hashtbl.replace t.table fd v;
  fd

let find t fd =
  match Hashtbl.find_opt t.table fd with
  | Some v -> Ok v
  | None -> Error Errno.EBADF

let close t fd =
  if Hashtbl.mem t.table fd then begin
    Hashtbl.remove t.table fd;
    Ok ()
  end
  else Error Errno.EBADF

