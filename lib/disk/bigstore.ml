(* Off-heap slab of fixed-size block slots.

   Payload storage for the simulated disk: one Bigarray chunk holds
   256 block-sized slots, and the slab grows by whole chunks
   as [alloc] demands. Chunks never move, so a slot's address is
   stable for its lifetime; a free-list recycles released slots.

   Safety lives at this boundary: every public operation validates the
   slot handle against the allocation bitmap and the byte range
   against the slot size, then performs the copy with a raw memcpy
   stub. Nothing below this module sees an unchecked offset. *)

type ba =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* memcpy between a Bigarray chunk and an OCaml bytes value. The
   OCaml-side callers bounds-check first; the stubs trust their
   arguments. [@@noalloc] — plain byte copies, no OCaml allocation. *)
external unsafe_blit_to_bytes : ba -> int -> bytes -> int -> int -> unit
  = "iron_ba_blit_to_bytes"
[@@noalloc]

external unsafe_blit_of_bytes : bytes -> int -> ba -> int -> int -> unit
  = "iron_ba_blit_of_bytes"
[@@noalloc]

(* 256 slots per chunk: the per-access slot → (chunk, offset) split is
   a shift and a mask. *)
let chunk_shift = 8

type t = {
  slot_size : int;
  mutable chunks : ba array;
  mutable capacity : int; (* slots backed by storage *)
  mutable next_fresh : int; (* first never-allocated slot *)
  mutable free : int list; (* released slots *)
  mutable live : int;
  mutable alive_bits : Bytes.t; (* 1 bit per slot: currently allocated *)
}

let create ~slot_size =
  if slot_size <= 0 then invalid_arg "Bigstore.create: slot_size";
  {
    slot_size;
    chunks = [||];
    capacity = 0;
    next_fresh = 0;
    free = [];
    live = 0;
    alive_bits = Bytes.create 0;
  }

let slot_size t = t.slot_size
let live t = t.live

let is_live t s =
  s >= 0
  && s < t.capacity
  (* in range ⇒ the bitmap index is valid, so the unsafe get is safe *)
  && Char.code (Bytes.unsafe_get t.alive_bits (s lsr 3)) land (1 lsl (s land 7))
     <> 0

let set_live t s on =
  let i = s lsr 3 in
  let bit = 1 lsl (s land 7) in
  let c = Char.code (Bytes.get t.alive_bits i) in
  Bytes.set t.alive_bits i
    (Char.chr (if on then c lor bit else c land lnot bit))

let grow t =
  let chunk =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout
      (t.slot_size lsl chunk_shift)
  in
  let n = Array.length t.chunks in
  let chunks = Array.make (n + 1) chunk in
  Array.blit t.chunks 0 chunks 0 n;
  t.chunks <- chunks;
  t.capacity <- t.capacity + (1 lsl chunk_shift);
  let bits = Bytes.make ((t.capacity + 7) / 8) '\000' in
  Bytes.blit t.alive_bits 0 bits 0 (Bytes.length t.alive_bits);
  t.alive_bits <- bits

let alloc t =
  let s =
    match t.free with
    | s :: rest ->
        t.free <- rest;
        s
    | [] ->
        if t.next_fresh >= t.capacity then grow t;
        let s = t.next_fresh in
        t.next_fresh <- s + 1;
        s
  in
  set_live t s true;
  t.live <- t.live + 1;
  s

(* Where slot [s] lives: its Bigarray chunk and the byte offset in it. *)
let chunk t s = Array.unsafe_get t.chunks (s lsr chunk_shift)
let offset t s = (s land ((1 lsl chunk_shift) - 1)) * t.slot_size

let check t s op =
  if not (is_live t s) then
    invalid_arg (Printf.sprintf "Bigstore.%s: dead slot %d" op s)

let free t s =
  check t s "free";
  set_live t s false;
  t.live <- t.live - 1;
  t.free <- s :: t.free

let read_into t s buf =
  check t s "read_into";
  if Bytes.length buf <> t.slot_size then
    invalid_arg "Bigstore.read_into: buffer size";
  unsafe_blit_to_bytes (chunk t s) (offset t s) buf 0 t.slot_size

let copy_out t s =
  check t s "copy_out";
  let buf = Bytes.create t.slot_size in
  unsafe_blit_to_bytes (chunk t s) (offset t s) buf 0 t.slot_size;
  buf

let write t s buf =
  check t s "write";
  if Bytes.length buf <> t.slot_size then invalid_arg "Bigstore.write: buffer size";
  unsafe_blit_of_bytes buf 0 (chunk t s) (offset t s) t.slot_size

let write_sub t s buf len =
  check t s "write_sub";
  if len < 0 || len > Bytes.length buf || len > t.slot_size then
    invalid_arg "Bigstore.write_sub: range";
  unsafe_blit_of_bytes buf 0 (chunk t s) (offset t s) len
