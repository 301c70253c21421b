(* Write-log recording device: see wlog.mli.

   The recorder sits between the file system and the medium. It is a
   pure observer — requests are forwarded first and logged only on
   success, so the device's externally visible behaviour (results,
   traces below, statistics, timing) is identical whether or not
   recording is on. The only cost of recording is one [Bytes.copy]
   per successful write. *)

module Dev = Iron_disk.Dev
module Prov = Iron_obs.Prov

type entry = {
  w_seq : int;
  w_block : int;
  w_data : bytes;
  w_epoch : int;
  w_t : float;
  w_prov : Prov.tag;
}

type t = {
  below : Dev.t;
  mutable log : entry array; (* growable; [n] live slots *)
  mutable n : int;
  mutable epoch : int;
  mutable writes_in_epoch : int;
  mutable recording : bool;
}

let dummy =
  {
    w_seq = -1;
    w_block = -1;
    w_data = Bytes.create 0;
    w_epoch = -1;
    w_t = 0.0;
    w_prov = Prov.none;
  }

let create below =
  {
    below;
    log = Array.make 64 dummy;
    n = 0;
    epoch = 0;
    writes_in_epoch = 0;
    recording = false;
  }

let set_recording t on = t.recording <- on

let clear t =
  t.log <- Array.make 64 dummy;
  t.n <- 0;
  t.epoch <- 0;
  t.writes_in_epoch <- 0

let length t = t.n
let epochs t = t.epoch
let entries t = Array.sub t.log 0 t.n

(* Hand the log over and drop the recorder's own references. A fuzzing
   campaign records thousands of workloads through short-lived
   recorders; without this, each recorder's growable buffer would pin
   every copied payload until the whole recorder dies. *)
let take t =
  let es = entries t and n_epochs = t.epoch in
  clear t;
  (es, n_epochs)

let push t e =
  if t.n = Array.length t.log then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.log 0 bigger 0 t.n;
    t.log <- bigger
  end;
  t.log.(t.n) <- e;
  t.n <- t.n + 1

let write t block data =
  match t.below.Dev.write block data with
  | Ok () ->
      if t.recording then begin
        push t
          {
            w_seq = t.n;
            w_block = block;
            w_data = Bytes.copy data;
            w_epoch = t.epoch;
            w_t = t.below.Dev.now ();
            w_prov = Prov.current ();
          };
        t.writes_in_epoch <- t.writes_in_epoch + 1
      end;
      Ok ()
  | Error _ as e -> e

let sync t =
  match t.below.Dev.sync () with
  | Ok () ->
      (* A sync closes an epoch only if it actually ordered something:
         back-to-back syncs do not mint empty epochs. *)
      if t.recording && t.writes_in_epoch > 0 then begin
        t.epoch <- t.epoch + 1;
        t.writes_in_epoch <- 0
      end;
      Ok ()
  | Error _ as e -> e

let dev t =
  {
    Dev.block_size = t.below.Dev.block_size;
    num_blocks = t.below.Dev.num_blocks;
    read = t.below.Dev.read;
    read_into = t.below.Dev.read_into;
    write = write t;
    sync = (fun () -> sync t);
    now = t.below.Dev.now;
  }
