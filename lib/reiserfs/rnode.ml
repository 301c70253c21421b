open Iron_util
module Fs = Iron_vfs.Fs
module Posix = Iron_vfs.Posix

type item_kind = Stat | Dirent | Direct | Indirect

let kind_rank = function Stat -> 0 | Dirent -> 1 | Direct -> 2 | Indirect -> 3

let kind_of_rank = function
  | 0 -> Some Stat
  | 1 -> Some Dirent
  | 2 -> Some Direct
  | 3 -> Some Indirect
  | _ -> None

type key = { objid : int; kind : item_kind; offset : int }

let compare_key a b =
  match compare a.objid b.objid with
  | 0 -> (
      match compare (kind_rank a.kind) (kind_rank b.kind) with
      | 0 -> compare a.offset b.offset
      | c -> c)
  | c -> c

type stat_body = {
  sk : Fs.kind;
  links : int;
  uid : int;
  gid : int;
  perms : int;
  size : int;
  atime : int;
  mtime : int;
  ctime : int;
  target : string;
}

type body =
  | Stat_body of stat_body
  | Dirent_body of (string * int) list
  | Direct_body of string
  | Indirect_body of int array

type item = { key : key; body : body }
type node = Leaf of item list | Internal of key list * int list

let max_leaf_items = 4
let max_children = 4
let max_indirect_ptrs = 32
let max_direct_bytes = 1024
let header_size = 8

type header = { level : int; nitems : int; free_space : int }

let decode_header buf =
  {
    level = Bytes.get_uint16_le buf 0;
    nitems = Bytes.get_uint16_le buf 2;
    free_space = Bytes.get_uint16_le buf 4;
  }

let header_plausible block_size h =
  h.level >= 1 && h.level <= 7
  && h.nitems <= max max_leaf_items max_children
  && h.free_space <= block_size

let put_key w (k : key) =
  Codec.put_u32 w k.objid;
  Codec.put_u32 w (kind_rank k.kind);
  Codec.put_u32 w k.offset

let get_key r =
  let objid = Codec.get_u32 r in
  let rank = Codec.get_u32 r in
  let offset = Codec.get_u32 r in
  match kind_of_rank rank with
  | Some kind -> Some { objid; kind; offset }
  | None -> None

let encode_body w = function
  | Stat_body s ->
      Codec.put_u8 w (Posix.kind_code (Some s.sk));
      Codec.put_u16 w s.links;
      Codec.put_u16 w s.uid;
      Codec.put_u16 w s.gid;
      Codec.put_u16 w s.perms;
      Codec.put_u32 w s.size;
      Codec.put_u32 w s.atime;
      Codec.put_u32 w s.mtime;
      Codec.put_u32 w s.ctime;
      Codec.put_u16 w (String.length s.target);
      Codec.put_string w s.target
  | Dirent_body entries -> Posix.put_entries w entries
  | Direct_body tail ->
      Codec.put_u16 w (String.length tail);
      Codec.put_string w tail
  | Indirect_body ptrs ->
      Codec.put_u16 w (Array.length ptrs);
      Array.iter (Codec.put_u32 w) ptrs

let body_size = function
  | Stat_body s -> 25 + 2 + String.length s.target
  | Dirent_body es ->
      2 + List.fold_left (fun a (n, _) -> a + 6 + String.length n) 0 es
  | Direct_body tail -> 2 + String.length tail
  | Indirect_body ptrs -> 2 + (4 * Array.length ptrs)

let item_size it = 12 + 2 + body_size it.body

let decode_body kind r =
  match kind with
  | Stat ->
      let code = Codec.get_u8 r in
      let links = Codec.get_u16 r in
      let uid = Codec.get_u16 r in
      let gid = Codec.get_u16 r in
      let perms = Codec.get_u16 r in
      let size = Codec.get_u32 r in
      let atime = Codec.get_u32 r in
      let mtime = Codec.get_u32 r in
      let ctime = Codec.get_u32 r in
      let tlen = Codec.get_u16 r in
      if tlen > Codec.remaining r then None
      else
        let target = Codec.get_string r tlen in
        Option.map
          (fun sk ->
            Stat_body { sk; links; uid; gid; perms; size; atime; mtime; ctime; target })
          (Posix.kind_of_code code)
  | Dirent -> Option.map (fun es -> Dirent_body es) (Posix.get_entries ~cap:4096 r)
  | Direct ->
      let len = Codec.get_u16 r in
      if len > max_direct_bytes || len > Codec.remaining r then None
      else Some (Direct_body (Codec.get_string r len))
  | Indirect ->
      let count = Codec.get_u16 r in
      if count > max_indirect_ptrs then None
      else Some (Indirect_body (Array.init count (fun _ -> Codec.get_u32 r)))

let leaf_fits block_size items =
  List.length items <= max_leaf_items
  && header_size + List.fold_left (fun a it -> a + item_size it) 0 items
     <= block_size

let encode block_size node buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  match node with
  | Leaf items ->
      if not (leaf_fits block_size items) then failwith "Rnode.encode: leaf overflow";
      let w = Codec.writer buf in
      Codec.put_u16 w 1;
      Codec.put_u16 w (List.length items);
      let used =
        header_size + List.fold_left (fun a it -> a + item_size it) 0 items
      in
      Codec.put_u16 w (block_size - used);
      Codec.put_u16 w 0;
      List.iter
        (fun it ->
          put_key w it.key;
          Codec.put_u16 w (body_size it.body);
          encode_body w it.body)
        items
  | Internal (keys, children) ->
      if List.length children > max_children then
        failwith "Rnode.encode: internal overflow";
      if List.length keys + 1 <> List.length children then
        failwith "Rnode.encode: key/child mismatch";
      let w = Codec.writer buf in
      (* Internal levels are encoded as 2; the tree code does not rely
         on exact heights in the header beyond the leaf/internal split,
         but sanity checks still validate the range. *)
      Codec.put_u16 w 2;
      Codec.put_u16 w (List.length children);
      Codec.put_u16 w 0;
      Codec.put_u16 w 0;
      List.iter (put_key w) keys;
      List.iter (Codec.put_u32 w) children

let decode buf =
  try
    let h = decode_header buf in
    if not (header_plausible (Bytes.length buf) h) then None
    else if h.level = 1 then begin
      let r = Codec.reader ~pos:header_size buf in
      let rec go n acc =
        if n = 0 then Some (Leaf (List.rev acc))
        else
          match get_key r with
          | None -> None
          | Some key -> (
              let len = Codec.get_u16 r in
              if len > Codec.remaining r then None
              else
                let body_bytes = Codec.get_bytes r len in
                let br = Codec.reader body_bytes in
                match decode_body key.kind br with
                | Some body -> go (n - 1) ({ key; body } :: acc)
                | None -> None)
      in
      go h.nitems []
    end
    else begin
      let r = Codec.reader ~pos:header_size buf in
      let nchildren = h.nitems in
      if nchildren = 0 then None
      else
        let rec keys n acc =
          if n = 0 then Some (List.rev acc)
          else
            match get_key r with
            | None -> None
            | Some k -> keys (n - 1) (k :: acc)
        in
        match keys (nchildren - 1) [] with
        | None -> None
        | Some ks ->
            let children = List.init nchildren (fun _ -> Codec.get_u32 r) in
            Some (Internal (ks, children))
    end
  with Codec.Decode_error _ -> None
