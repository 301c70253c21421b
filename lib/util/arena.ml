(* Per-domain pool of fixed-size byte buffers.

   The campaign executor allocates tens of thousands of 4 KiB block
   buffers per second (cache fills, journal transaction images, scratch
   blocks), all short-lived and all landing on the major heap because
   4 KiB exceeds the minor allocation threshold. Pooling them turns that
   churn into pointer swaps.

   Arenas are per-domain (looked up through [Domain.DLS]), so [get] and
   [put] never race: a buffer fetched on a worker domain returns to that
   worker's pool. Buffers carry no ownership tracking — [put] is a
   promise by the caller that nothing aliases the buffer anymore; the
   pool is only a cache, so dropping a buffer instead of returning it is
   always safe, just slower. A capacity bound keeps a pathological
   release burst from pinning unbounded memory. *)

type t = {
  size : int;
  mutable free : bytes list;
  mutable nfree : int;
}

(* Released buffers a pool retains. *)
let cap = 4096

let create size =
  if size <= 0 then invalid_arg "Arena.block: size must be positive";
  { size; free = []; nfree = 0 }

let get t =
  match t.free with
  | b :: rest ->
      t.free <- rest;
      t.nfree <- t.nfree - 1;
      b
  | [] -> Bytes.create t.size

let get_zeroed t =
  match t.free with
  | b :: rest ->
      t.free <- rest;
      t.nfree <- t.nfree - 1;
      Bytes.fill b 0 t.size '\000';
      b
  | [] -> Bytes.make t.size '\000'

let copy t data =
  if Bytes.length data <> t.size then Bytes.copy data
  else begin
    let b = get t in
    Bytes.blit data 0 b 0 t.size;
    b
  end

let put t b =
  if Bytes.length b = t.size && t.nfree < cap then begin
    t.free <- b :: t.free;
    t.nfree <- t.nfree + 1
  end

let scratch t f =
  let b = get t in
  let r = f b in
  put t b;
  r

(* The calling domain's shared pool for [size]-byte buffers. One table
   per domain keyed by buffer size; in practice only the block size of
   the simulated disks (4 KiB) ever appears. *)
let dls : (int, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let block size =
  let tbl = Domain.DLS.get dls in
  match Hashtbl.find_opt tbl size with
  | Some a -> a
  | None ->
      let a = create size in
      Hashtbl.add tbl size a;
      a

(* One zero block per size for the whole process. It is only ever read,
   so domains share it. A domain that loses the race to publish a size
   drops the block it made and takes the winner's. *)
let zero_blocks : (int * bytes) list Atomic.t = Atomic.make []

let rec zeros size =
  let known = Atomic.get zero_blocks in
  match List.assoc_opt size known with
  | Some z -> z
  | None ->
      let z = Bytes.make size '\000' in
      if Atomic.compare_and_set zero_blocks known ((size, z) :: known) then z
      else zeros size
