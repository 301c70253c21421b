let get buf i = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0

let set buf i on =
  let v = Char.code (Bytes.get buf (i / 8)) in
  let bit = 1 lsl (i mod 8) in
  Bytes.set buf (i / 8) (Char.chr (if on then v lor bit else v land lnot bit))

let find_clear ?(from = 0) buf limit =
  let rec go i =
    if i >= limit then None
    else if i land 7 = 0 && Bytes.get buf (i / 8) = '\xFF' then go (i + 8)
    else if get buf i then go (i + 1)
    else Some i
  in
  go from
