module Arena = Iron_util.Arena
module Sha1 = Iron_util.Sha1

(* A cached block: its buffer and, once someone asks, the buffer's SHA-1.
   The digest lives in the entry, so replacing or dropping the entry
   drops the digest with it. *)
type entry = { data : bytes; mutable sha : Sha1.t option }

type t = {
  device : Dev.t;
  capacity : int;
  table : (int, entry) Hashtbl.t;
  order : int Queue.t; (* insertion order, for FIFO eviction *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 256) device =
  { device; capacity; table = Hashtbl.create 64; order = Queue.create (); hits = 0; misses = 0 }


(* Buffer ownership: once a cache buffer is filled, nothing writes to it
   again, and only [release], at the end of the mount, hands it back to
   the arena — eviction, replacement and [invalidate] simply drop it.
   That is what lets [borrow] return the buffer itself: a borrower keeps
   valid, unchanging bytes until its mount ends, whatever the cache does
   meanwhile. It is also why an entry's digest stays exact for as long
   as the entry is current. Buffers are drawn from the calling domain's
   block arena, which the journal engine refills as its images die; it
   is looked up per call rather than stored so a cache created on one
   domain but used on another (never happens today) stays safe. *)
let arena t = Arena.block t.device.Dev.block_size

let evict_if_full t =
  while Hashtbl.length t.table >= t.capacity && not (Queue.is_empty t.order) do
    Hashtbl.remove t.table (Queue.pop t.order)
  done

(* [insert] adopts a buffer nobody else may write to: [fill]'s fresh
   one or [write]'s private copy. *)
let insert t b data =
  if not (Hashtbl.mem t.table b) then begin
    evict_if_full t;
    Queue.push b t.order
  end;
  Hashtbl.replace t.table b { data; sha = None }

(* Miss path: fill a fresh cache-owned buffer via the device's
   zero-copy read and adopt it. *)
let fill t b =
  let buf = Arena.get (arena t) in
  match t.device.Dev.read_into b buf with
  | Ok () ->
      insert t b buf;
      Ok buf
  | Error _ as e ->
      Arena.put (arena t) buf;
      e

let borrow t b =
  match Hashtbl.find_opt t.table b with
  | Some e ->
      t.hits <- t.hits + 1;
      Ok e.data
  | None ->
      t.misses <- t.misses + 1;
      fill t b

let peek t b =
  match Hashtbl.find_opt t.table b with Some e -> Some e.data | None -> None

let digest t b buf =
  match Hashtbl.find_opt t.table b with
  | Some ({ data; _ } as e) when data == buf -> (
      match e.sha with
      | Some d -> Some d
      | None ->
          let d = Sha1.digest data in
          e.sha <- Some d;
          Some d)
  | Some _ | None -> None

let write t b data =
  insert t b (Arena.copy (arena t) data);
  t.device.Dev.write b data

let invalidate t b = Hashtbl.remove t.table b

let invalidate_all t =
  Hashtbl.reset t.table;
  Queue.clear t.order

let release t =
  let a = arena t in
  Hashtbl.iter (fun _ e -> Arena.put a e.data) t.table;
  invalidate_all t

let hits t = t.hits
let misses t = t.misses
