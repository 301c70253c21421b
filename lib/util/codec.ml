exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

type reader = { rbuf : bytes; mutable rpos : int }

let reader ?(pos = 0) rbuf = { rbuf; rpos = pos }
let remaining r = Bytes.length r.rbuf - r.rpos

let need r n =
  if r.rpos + n > Bytes.length r.rbuf then
    fail "codec: read of %d bytes at %d overruns buffer of %d" n r.rpos
      (Bytes.length r.rbuf)

let get_u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.rbuf r.rpos) in
  r.rpos <- r.rpos + 1;
  v

let get_u16 r =
  need r 2;
  let v = Bytes.get_uint16_le r.rbuf r.rpos in
  r.rpos <- r.rpos + 2;
  v

let get_u32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.rbuf r.rpos) land 0xFFFFFFFF in
  r.rpos <- r.rpos + 4;
  v

let get_u64 r =
  need r 8;
  let v = Bytes.get_int64_le r.rbuf r.rpos in
  r.rpos <- r.rpos + 8;
  v

let get_bytes r n =
  if n < 0 then fail "codec: negative length %d" n;
  need r n;
  let v = Bytes.sub r.rbuf r.rpos n in
  r.rpos <- r.rpos + n;
  v

let get_string r n = Bytes.to_string (get_bytes r n)

type writer = { wbuf : bytes; mutable wpos : int }

let writer ?(pos = 0) wbuf = { wbuf; wpos = pos }
let writer_pos w = w.wpos

let room w n =
  if w.wpos + n > Bytes.length w.wbuf then
    fail "codec: write of %d bytes at %d overruns buffer of %d" n w.wpos
      (Bytes.length w.wbuf)

let put_u8 w v =
  room w 1;
  Bytes.set w.wbuf w.wpos (Char.chr (v land 0xFF));
  w.wpos <- w.wpos + 1

let put_u16 w v =
  room w 2;
  Bytes.set_uint16_le w.wbuf w.wpos (v land 0xFFFF);
  w.wpos <- w.wpos + 2

let put_u32 w v =
  room w 4;
  Bytes.set_int32_le w.wbuf w.wpos (Int32.of_int v);
  w.wpos <- w.wpos + 4

let put_u64 w v =
  room w 8;
  Bytes.set_int64_le w.wbuf w.wpos v;
  w.wpos <- w.wpos + 8

let put_bytes w b =
  let n = Bytes.length b in
  room w n;
  Bytes.blit b 0 w.wbuf w.wpos n;
  w.wpos <- w.wpos + n

let put_string w s = put_bytes w (Bytes.of_string s)
let read_u32 buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF
let write_u32 buf off v = Bytes.set_int32_le buf off (Int32.of_int v)
