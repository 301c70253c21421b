type t =
  | Superblock
  | Gdesc
  | Bitmap
  | Ibitmap
  | Inode
  | Dir
  | Data
  | Jsb
  | Jdata
  | Cksum
  | Rlog
  | Rmap
  | Replica
  | Unknown

let to_string = function
  | Superblock -> "super"
  | Gdesc -> "gdesc"
  | Bitmap -> "bitmap"
  | Ibitmap -> "ibitmap"
  | Inode -> "inode"
  | Dir -> "dir"
  | Data -> "data"
  | Jsb -> "j-sb"
  | Jdata -> "j-data"
  | Cksum -> "cksum"
  | Rlog -> "rlog"
  | Rmap -> "rmap"
  | Replica -> "replica"
  | Unknown -> "?"

let is_journal_region = function Jsb | Jdata -> true | _ -> false
