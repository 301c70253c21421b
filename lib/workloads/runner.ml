module Memdisk = Iron_disk.Memdisk
module Fs = Iron_vfs.Fs

let ( let* ) = Result.bind

type stats = {
  elapsed_ms : float;
  reads : int;
  writes : int;
  syncs : int;
}

let num_blocks = 4096

let run ?obs ?(seed = 42) brand (app : Apps.t) =
  (* With a context: instrument the device and keep it ambient for the
     whole run, so journal/scrub spans from inside the file system are
     captured with real simulated timestamps (the time model is on for
     the measured phase). *)
  let instrument f =
    match obs with
    | None -> f ()
    | Some o -> Iron_obs.Obs.with_ambient o f
  in
  instrument @@ fun () ->
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks; seed }
      ()
  in
  let dev = Memdisk.dev disk in
  let dev =
    match obs with None -> dev | Some o -> Iron_disk.Dev.observe o dev
  in
  (* Setup is untimed: Table 6 measures the workloads, not mkfs. *)
  Memdisk.set_time_model disk false;
  let* () = Fs.mkfs brand dev in
  let* (Fs.Boxed ((module F), t)) = Fs.mount brand dev in
  let rng = Iron_util.Prng.create (seed lxor 0xBE7C4) in
  let* () = app.Apps.setup (Fs.Boxed ((module F), t)) rng in
  Memdisk.reset_stats disk;
  Memdisk.set_time_model disk true;
  let* () = app.Apps.run (Fs.Boxed ((module F), t)) rng in
  let* () = F.unmount t in
  let s = Memdisk.stats disk in
  Ok
    {
      elapsed_ms = s.Memdisk.elapsed_ms +. app.Apps.cpu_ms;
      reads = s.Memdisk.reads;
      writes = s.Memdisk.writes;
      syncs = s.Memdisk.syncs;
    }
