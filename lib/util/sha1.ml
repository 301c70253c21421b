type t = string (* 20 raw bytes *)

type ctx = {
  h : int array; (* 5-element chaining state, 32-bit values as ints *)
  block : bytes; (* 64-byte accumulation buffer *)
  mutable used : int; (* bytes pending in [block] *)
  mutable total : int; (* total message bytes fed *)
}

(* The 80-round compression function lives in C (iron_sha1_stubs.c):
   ixt3 hashes every checksummed block on read and write, so this is the
   hottest pure-CPU loop in the campaign. The stub processes [nblocks]
   consecutive 64-byte blocks; callers below guarantee
   off + 64*nblocks <= length buf. *)
external compress_n : int array -> bytes -> int -> int -> unit
  = "iron_sha1_compress_n"
[@@noalloc]

let init () =
  {
    h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |];
    block = Bytes.create 64;
    used = 0;
    total = 0;
  }

let feed ctx ?(off = 0) ?len buf =
  let len = match len with Some l -> l | None -> Bytes.length buf - off in
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Sha1.feed";
  ctx.total <- ctx.total + len;
  let pos = ref off in
  let left = ref len in
  (* Top up a partial block first. *)
  if ctx.used > 0 then begin
    let take = min !left (64 - ctx.used) in
    Bytes.blit buf !pos ctx.block ctx.used take;
    ctx.used <- ctx.used + take;
    pos := !pos + take;
    left := !left - take;
    if ctx.used = 64 then begin
      compress_n ctx.h ctx.block 0 1;
      ctx.used <- 0
    end
  end;
  let nblocks = !left / 64 in
  if nblocks > 0 then begin
    compress_n ctx.h buf !pos nblocks;
    pos := !pos + (nblocks * 64);
    left := !left - (nblocks * 64)
  end;
  if !left > 0 then begin
    Bytes.blit buf !pos ctx.block ctx.used !left;
    ctx.used <- ctx.used + !left
  end

let finalize ctx =
  let bits = ctx.total * 8 in
  let pad_len =
    let rem = (ctx.total + 1) mod 64 in
    if rem <= 56 then 56 - rem + 1 else 64 - rem + 56 + 1
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len + i)
      (Char.chr ((bits lsr ((7 - i) * 8)) land 0xFF))
  done;
  (* Feed the padding without perturbing [total]. *)
  let saved = ctx.total in
  feed ctx pad;
  ctx.total <- saved;
  assert (ctx.used = 0);
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xFF));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xFF))
  in
  put 0 ctx.h.(0);
  put 1 ctx.h.(1);
  put 2 ctx.h.(2);
  put 3 ctx.h.(3);
  put 4 ctx.h.(4);
  Bytes.to_string out

let digest ?(off = 0) ?len buf =
  let ctx = init () in
  feed ctx ~off ?len buf;
  finalize ctx

let digest_string s = digest (Bytes.of_string s)

let to_hex d =
  let b = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents b

let to_raw d = d

let of_raw s =
  if String.length s <> 20 then invalid_arg "Sha1.of_raw: expected 20 bytes";
  s

let equal = String.equal
