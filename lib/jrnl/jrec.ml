open Iron_util

type format = {
  jsuper_magic : int;
  desc_magic : int;
  commit_magic : int;
  revoke_magic : int option;
}

let jbd =
  {
    jsuper_magic = 0x4A535550 (* "JSUP" *);
    desc_magic = 0x4A444553 (* "JDES" *);
    commit_magic = 0x4A434F4D (* "JCOM" *);
    revoke_magic = Some 0x4A524556 (* "JREV" *);
  }

type jsuper = { sequence : int; start : int }

let encode_jsuper fmt t buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w fmt.jsuper_magic;
  Codec.put_u32 w t.sequence;
  Codec.put_u32 w t.start

let decode_jsuper fmt buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> fmt.jsuper_magic then None
    else
      let sequence = Codec.get_u32 r in
      let start = Codec.get_u32 r in
      Some { sequence; start }
  with Codec.Decode_error _ -> None

(* Descriptors and revoke blocks share one shape: magic, sequence, a
   counted list of block numbers. *)
let encode_list magic seq blocks buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w magic;
  Codec.put_u32 w seq;
  Codec.put_u32 w (List.length blocks);
  List.iter (Codec.put_u32 w) blocks

let decode_list magic buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> magic then None
    else
      let seq = Codec.get_u32 r in
      let count = Codec.get_u32 r in
      if count > (Bytes.length buf - 12) / 4 then None
      else Some (seq, List.init count (fun _ -> Codec.get_u32 r))
  with Codec.Decode_error _ -> None

type desc = { seq : int; tags : int list }

let encode_desc fmt t buf = encode_list fmt.desc_magic t.seq t.tags buf

let decode_desc fmt buf =
  Option.map (fun (seq, tags) -> { seq; tags }) (decode_list fmt.desc_magic buf)

let max_tags block_size = (block_size - 12) / 4

type commit = { cseq : int; checksum : string option }

let encode_commit fmt t buf =
  Bytes.fill buf 0 (Bytes.length buf) '\000';
  let w = Codec.writer buf in
  Codec.put_u32 w fmt.commit_magic;
  Codec.put_u32 w t.cseq;
  match t.checksum with
  | None -> Codec.put_u8 w 0
  | Some d ->
      Codec.put_u8 w 1;
      Codec.put_string w d

let decode_commit fmt buf =
  try
    let r = Codec.reader buf in
    if Codec.get_u32 r <> fmt.commit_magic then None
    else
      let cseq = Codec.get_u32 r in
      let has = Codec.get_u8 r in
      let checksum = if has = 1 then Some (Codec.get_string r 20) else None in
      Some { cseq; checksum }
  with Codec.Decode_error _ -> None

type revoke = { rseq : int; revoked : int list }

let encode_revoke fmt t buf =
  match fmt.revoke_magic with
  | Some magic -> encode_list magic t.rseq t.revoked buf
  | None -> invalid_arg "Jrec.encode_revoke: the format has no revoke blocks"

let decode_revoke fmt buf =
  match fmt.revoke_magic with
  | None -> None
  | Some magic ->
      Option.map
        (fun (rseq, revoked) -> { rseq; revoked })
        (decode_list magic buf)
