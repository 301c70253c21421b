(* The disk service-time model and statistics engine of Memdisk: the
   head position, the rotational PRNG, the dirty flag and every counter
   live here, apart from the block store. *)

type params = {
  block_size : int;
  num_blocks : int;
  seed : int;
}

let default_params = { block_size = 4096; num_blocks = 2048; seed = 0xD15C }

(* The modelled drive: a 7200 RPM disk. *)
let seek_min_ms = 0.8
let seek_span_ms = 7.2
let rotation_ms = 8.33
let bandwidth_mb_s = 40.0

type stats = {
  reads : int;
  writes : int;
  syncs : int;
  seeks : int;
  elapsed_ms : float;
}

type t = {
  params : params;
  rng : Iron_util.Prng.t;
  mutable head : int; (* block under the head after the last request *)
  mutable clock : float;
  mutable dirty : bool; (* writes not yet followed by a sync *)
  mutable timed : bool;
  mutable reads : int;
  mutable writes : int;
  mutable syncs : int;
  mutable seeks : int;
}

let create params =
  {
    params;
    rng = Iron_util.Prng.create params.seed;
    head = 0;
    clock = 0.0;
    dirty = false;
    timed = true;
    reads = 0;
    writes = 0;
    syncs = 0;
    seeks = 0;
  }

let transfer_ms t =
  float_of_int t.params.block_size /. (bandwidth_mb_s *. 1048.576)

(* Advance the simulated clock for a request on block [b]. Sequential
   accesses stream from the media with transfer time only; a short
   forward skip just passes over the gap under the head; anything else
   costs a seek plus a rotational wait. *)
let near_skip = 16

let charge t b =
  if t.timed then begin
    let p = t.params in
    let gap = b - t.head in
    if gap = 1 || gap = 0 then t.clock <- t.clock +. transfer_ms t
    else if gap > 1 && gap <= near_skip then
      t.clock <- t.clock +. (float_of_int gap *. transfer_ms t)
    else begin
      t.seeks <- t.seeks + 1;
      let dist = abs gap in
      let frac = float_of_int dist /. float_of_int p.num_blocks in
      let seek = seek_min_ms +. (seek_span_ms *. sqrt frac) in
      let rot = Iron_util.Prng.float t.rng rotation_ms in
      t.clock <- t.clock +. seek +. rot +. transfer_ms t
    end
  end;
  t.head <- b

let charge_read t b =
  t.reads <- t.reads + 1;
  charge t b

let charge_write t b =
  t.writes <- t.writes + 1;
  charge t b;
  t.dirty <- true

let charge_sync t =
  t.syncs <- t.syncs + 1;
  if t.dirty then begin
    if t.timed then t.clock <- t.clock +. (rotation_ms /. 2.0);
    t.dirty <- false
  end

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    syncs = t.syncs;
    seeks = t.seeks;
    elapsed_ms = t.clock;
  }

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.syncs <- 0;
  t.seeks <- 0;
  t.clock <- 0.0

(* A restore gives every run identical initial conditions: head parked,
   nothing dirty, statistics and clock zeroed. The PRNG deliberately
   keeps its state. *)
let reset t =
  t.head <- 0;
  t.dirty <- false;
  reset_stats t

let set_timed t on = t.timed <- on
let now t = t.clock
