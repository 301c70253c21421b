(* The in-memory simulated disk.

   State is split in two: a frozen, structurally shared image of
   fixed-size chunks (untouched chunks are [None], untouched blocks
   alias one zero buffer) and a private overlay of dirty blocks held in
   a Bigstore slab. Snapshot freezes the overlay into a new image that
   shares every clean chunk with the old one; restore drops the
   overlay. Both are O(dirty). Timing and statistics live in Model. *)

type params = Model.params = {
  block_size : int;
  num_blocks : int;
  seek_min_ms : float;
  seek_span_ms : float;
  rotation_ms : float;
  bandwidth_mb_s : float;
  seed : int;
}

let default_params = Model.default_params

type stats = Model.stats = {
  reads : int;
  writes : int;
  syncs : int;
  seeks : int;
  elapsed_ms : float;
}

let chunk_shift = 9
let chunk_blocks = 1 lsl chunk_shift
let chunk_mask = chunk_blocks - 1
let chunk_len ~num_blocks c = min chunk_blocks (num_blocks - (c lsl chunk_shift))

type image = {
  i_block_size : int;
  i_num_blocks : int;
  i_zero : bytes; (* the all-zeroes block every untouched slot aliases *)
  i_chunks : bytes array option array; (* [None] = untouched, all zero *)
}

let blank_image ~block_size ~num_blocks =
  {
    i_block_size = block_size;
    i_num_blocks = num_blocks;
    i_zero = Bytes.make block_size '\000';
    i_chunks = Array.make ((num_blocks + chunk_mask) lsr chunk_shift) None;
  }

let image_block img b =
  match img.i_chunks.(b lsr chunk_shift) with
  | None -> img.i_zero
  | Some blocks -> blocks.(b land chunk_mask)

let image_chunks_touched img =
  Array.fold_left (fun n c -> if Option.is_some c then n + 1 else n) 0 img.i_chunks

let image_blocks_touched img =
  Array.fold_left
    (fun n c ->
      match c with
      | None -> n
      | Some blocks ->
          Array.fold_left (fun n b -> if b == img.i_zero then n else n + 1) n blocks)
    0 img.i_chunks

(* The overlay: per chunk, a slot array ([no_slots] until the chunk's
   first dirty block) mapping each block to its slab slot or [clean];
   plus the dirty block numbers in write order, so snapshot and restore
   walk only what was touched. *)
let clean = -1
let no_slots : int array = [||]

type t = {
  model : Model.t;
  mutable base : image;
  slab : Bigstore.t;
  overlay : int array array;
  mutable dirty : int array;
  mutable ndirty : int;
}

let create ?(params = default_params) () =
  let base =
    blank_image ~block_size:params.block_size ~num_blocks:params.num_blocks
  in
  {
    model = Model.create params;
    base;
    slab = Bigstore.create ~slot_size:params.block_size;
    overlay = Array.make (Array.length base.i_chunks) no_slots;
    dirty = Array.make 64 0;
    ndirty = 0;
  }

let block_size t = t.base.i_block_size
let num_blocks t = t.base.i_num_blocks
let dirty_count t = t.ndirty

let slot t b =
  let slots = t.overlay.(b lsr chunk_shift) in
  if slots == no_slots then clean else slots.(b land chunk_mask)

(* A fresh slab slot for clean block [b], now dirty. *)
let own t b =
  let s = Bigstore.alloc t.slab in
  let c = b lsr chunk_shift in
  if t.overlay.(c) == no_slots then
    t.overlay.(c) <- Array.make (chunk_len ~num_blocks:(num_blocks t) c) clean;
  t.overlay.(c).(b land chunk_mask) <- s;
  if t.ndirty = Array.length t.dirty then begin
    let bigger = Array.make (2 * t.ndirty) 0 in
    Array.blit t.dirty 0 bigger 0 t.ndirty;
    t.dirty <- bigger
  end;
  t.dirty.(t.ndirty) <- b;
  t.ndirty <- t.ndirty + 1;
  s

let in_range t b = b >= 0 && b < num_blocks t

let peek t b =
  let s = slot t b in
  if s <> clean then Bigstore.copy_out t.slab s
  else Bytes.copy (image_block t.base b)

let read t b =
  if not (in_range t b) then Error Dev.Enxio
  else begin
    Model.charge_read t.model b;
    Ok (peek t b)
  end

let read_into t b buf =
  if not (in_range t b) then Error Dev.Enxio
  else if Bytes.length buf <> block_size t then Error Dev.Eio
  else begin
    Model.charge_read t.model b;
    let s = slot t b in
    if s <> clean then Bigstore.read_into t.slab s buf
    else Bytes.blit (image_block t.base b) 0 buf 0 (Bytes.length buf);
    Ok ()
  end

let write t b data =
  if not (in_range t b) then Error Dev.Enxio
  else if Bytes.length data <> block_size t then Error Dev.Eio
  else begin
    Model.charge_write t.model b;
    let s = slot t b in
    if s <> clean then Bigstore.write t.slab s data
    else begin
      let zero = t.base.i_zero in
      (* Zeroes over a still-zero block change nothing: the write is
         charged and counted above, but the block stays clean. *)
      if not (image_block t.base b == zero && Bytes.equal data zero) then
        Bigstore.write t.slab (own t b) data
    end;
    Ok ()
  end

let sync t =
  Model.charge_sync t.model;
  Ok ()

let dev t =
  {
    Dev.block_size = block_size t;
    num_blocks = num_blocks t;
    read = read t;
    read_into = read_into t;
    write = write t;
    sync = (fun () -> sync t);
    now = (fun () -> Model.now t.model);
  }

let stats t = Model.stats t.model
let reset_stats t = Model.reset_stats t.model
let set_time_model t on = Model.set_timed t.model on

(* A partial write: a fresh slot is seeded from the image first, so the
   block's tail (and nothing of a recycled slot's last owner) survives. *)
let poke t b data =
  let s = slot t b in
  let s =
    if s <> clean then s
    else begin
      let s = own t b in
      Bigstore.write t.slab s (image_block t.base b);
      s
    end
  in
  Bigstore.write_sub t.slab s data (min (Bytes.length data) (block_size t))

(* Move every dirty block out of the overlay, handing its slot's bytes
   to [keep] first; the slots return to the slab's free list. *)
let drain t keep =
  for i = 0 to t.ndirty - 1 do
    let b = t.dirty.(i) in
    let slots = t.overlay.(b lsr chunk_shift) in
    let j = b land chunk_mask in
    keep b slots.(j);
    Bigstore.free t.slab slots.(j);
    slots.(j) <- clean
  done;
  t.ndirty <- 0

(* A dirty chunk is copied once (a pointer-array copy, or a fresh
   zero-aliased array for an untouched chunk); [chunks.(c) != old.(c)]
   tells an already-copied chunk apart. *)
let snapshot t =
  if t.ndirty = 0 then t.base
  else begin
    let old = t.base.i_chunks in
    let chunks = Array.copy old in
    drain t (fun b s ->
        let c = b lsr chunk_shift in
        let blocks =
          match chunks.(c) with
          | Some blocks when chunks.(c) != old.(c) -> blocks
          | Some blocks ->
              let blocks = Array.copy blocks in
              chunks.(c) <- Some blocks;
              blocks
          | None ->
              let blocks =
                Array.make (chunk_len ~num_blocks:(num_blocks t) c) t.base.i_zero
              in
              chunks.(c) <- Some blocks;
              blocks
        in
        blocks.(b land chunk_mask) <- Bigstore.copy_out t.slab s);
    let img = { t.base with i_chunks = chunks } in
    t.base <- img;
    img
  end

let restore t img =
  if img.i_num_blocks <> num_blocks t || img.i_block_size <> block_size t then
    invalid_arg "Memdisk.restore: image geometry mismatch";
  drain t (fun _ _ -> ());
  t.base <- img;
  Model.reset t.model
