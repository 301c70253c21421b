open Iron_util

type kind = Free | Regular | Directory | Symlink

type t = {
  kind : kind;
  links : int;
  uid : int;
  gid : int;
  perms : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
  nblocks : int;
  direct : int array;
  ind : int;
  dind : int;
  tind : int;
  parity : int;
  symlink_target : string;
}

let kind_code = function Free -> 0 | Regular -> 1 | Directory -> 2 | Symlink -> 3

let kind_of_code = function
  | 1 -> Regular
  | 2 -> Directory
  | 3 -> Symlink
  | _ -> Free

let kind_at buf off = kind_of_code (Char.code (Bytes.get buf off))

let empty lay =
  {
    kind = Free;
    links = 0;
    uid = 0;
    gid = 0;
    perms = 0;
    size = 0;
    atime = 0;
    mtime = 0;
    ctime = 0;
    nblocks = 0;
    direct = Array.make lay.Layout.direct_ptrs 0;
    ind = 0;
    dind = 0;
    tind = 0;
    parity = 0;
    symlink_target = "";
  }

let fresh lay kind ~perms ~time =
  {
    (empty lay) with
    kind;
    links = 1;
    perms;
    atime = time;
    mtime = time;
    ctime = time;
  }

let max_symlink = 48

let encode lay t buf off =
  let w = Codec.writer ~pos:off buf in
  Codec.put_u8 w (kind_code t.kind);
  Codec.put_u8 w 0;
  Codec.put_u16 w t.links;
  Codec.put_u16 w t.uid;
  Codec.put_u16 w t.gid;
  Codec.put_u16 w t.perms;
  Codec.put_u16 w 0;
  Codec.put_u32 w t.size;
  Codec.put_u32 w t.atime;
  Codec.put_u32 w t.mtime;
  Codec.put_u32 w t.ctime;
  Codec.put_u32 w t.nblocks;
  Array.iter (Codec.put_u32 w) t.direct;
  Codec.put_u32 w t.ind;
  Codec.put_u32 w t.dind;
  Codec.put_u32 w t.tind;
  Codec.put_u32 w t.parity;
  let target =
    if String.length t.symlink_target > max_symlink then
      String.sub t.symlink_target 0 max_symlink
    else t.symlink_target
  in
  Codec.put_u16 w (String.length target);
  Codec.put_string w target;
  (* Zero the remainder of the slot. *)
  let used = Codec.writer_pos w - off in
  Bytes.fill buf (off + used) (lay.Layout.inode_size - used) '\000'

let decode lay buf off =
  let r = Codec.reader ~pos:off buf in
  let kind = kind_of_code (Codec.get_u8 r) in
  let _pad = Codec.get_u8 r in
  let links = Codec.get_u16 r in
  let uid = Codec.get_u16 r in
  let gid = Codec.get_u16 r in
  let perms = Codec.get_u16 r in
  let _pad2 = Codec.get_u16 r in
  let size = Codec.get_u32 r in
  let atime = Codec.get_u32 r in
  let mtime = Codec.get_u32 r in
  let ctime = Codec.get_u32 r in
  let nblocks = Codec.get_u32 r in
  let direct = Array.init lay.Layout.direct_ptrs (fun _ -> Codec.get_u32 r) in
  let ind = Codec.get_u32 r in
  let dind = Codec.get_u32 r in
  let tind = Codec.get_u32 r in
  let parity = Codec.get_u32 r in
  let tlen = Codec.get_u16 r in
  let symlink_target =
    if tlen <= max_symlink && tlen <= Codec.remaining r then Codec.get_string r tlen
    else ""
  in
  { kind; links; uid; gid; perms; size; atime; mtime; ctime; nblocks;
    direct; ind; dind; tind; parity; symlink_target }

let max_file_blocks lay =
  let p = lay.Layout.ptrs_per_block in
  lay.Layout.direct_ptrs + p + (p * p) + (p * p * p)
