(* Request-stream pins for reiserfs, jfs and ntfs.

   Each fingerprint column (Workload.all) runs through the fault
   injector with tracing on, once fault-free and once per fault the
   fingerprinter would arm for it: a failed read, a type-aware
   corruption and a failed write of the first block of each type the
   fault-free run touched. The ops, mount and umount columns start from
   the fixture's base image and the recovery column from the crash
   image. Every run feeds one SHA-1 per column: the whole request trace
   (position, direction, block, outcome) from mount to unmount, the API
   result, panic and read-only flags, the verify verdict, the klog
   lines and the final bytes of every block written.

   The matrices the goldens pin derive from the first touched block of
   each type, so a reordered or extra request later in a run could slip
   past them; these digests fail by column name instead. *)

open Iron_disk
module Fs = Iron_vfs.Fs
module Errno = Iron_vfs.Errno
module Klog = Iron_vfs.Klog
module Fault = Iron_fault.Fault
module Sha1 = Iron_util.Sha1
module W = Iron_core.Workload

let num_blocks = 2048

type rig = {
  disk : Memdisk.t;
  inj : Fault.t;
  dev : Dev.t;
  base : Memdisk.image;
  crash : Memdisk.image;
}

let must what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let rig brand =
  let disk =
    Memdisk.create
      ~params:{ Memdisk.default_params with Memdisk.num_blocks = num_blocks }
      ()
  in
  Memdisk.set_time_model disk false;
  let inj = Fault.create (Memdisk.dev disk) in
  let dev = Fault.dev inj in
  must "mkfs" (Fs.mkfs brand dev);
  (let (Fs.Boxed ((module F), t) as fs) = must "mount" (Fs.mount brand dev) in
   must "fixture" (W.fixture fs);
   must "unmount" (F.unmount t));
  let base = Memdisk.snapshot disk in
  must "crash prep" (W.crash_prep (must "remount" (Fs.mount brand dev)));
  { disk; inj; dev; base; crash = Memdisk.snapshot disk }

let rigs = Hashtbl.create 3

let rig_of brand =
  let name = Fs.brand_name brand in
  match Hashtbl.find_opt rigs name with
  | Some r -> r
  | None ->
      let r = rig brand in
      Hashtbl.replace rigs name r;
      r

let feed_string ctx s = Sha1.feed ctx (Bytes.unsafe_of_string s)

(* One run of column [w], with [arm] called where the fingerprinter
   opens its fault window: after mount (and, for umount, after the
   pre-unmount activity), or before mount for the mount and recovery
   columns. The trace covers the whole run. *)
let run_one ctx brand r (w : W.t) ~arm =
  Memdisk.restore r.disk
    (match w.W.kind with W.Recovery_op -> r.crash | _ -> r.base);
  Fault.disarm_all r.inj;
  Fault.clear_trace r.inj;
  let guard f = try (f (), false) with Klog.Panic _ -> (Error Errno.EIO, true) in
  let unmount (Fs.Boxed ((module F), t)) = guard (fun () -> F.unmount t) in
  let mount () =
    match guard (fun () -> Result.map Option.some (Fs.mount brand r.dev)) with
    | Ok fs, _ -> (fs, Ok (), false)
    | Error e, panicked -> (None, Error e, panicked)
  in
  let api, panicked, fs, verified =
    match w.W.kind with
    | W.Ops -> (
        match mount () with
        | None, api, panicked -> (api, panicked, None, true)
        | Some fs, _, _ ->
            arm ();
            let api, panicked = guard (fun () -> w.W.run fs) in
            let verified =
              panicked || api <> Ok ()
              ||
              match w.W.verify with
              | Some v -> ( try v fs with Klog.Panic _ -> true)
              | None -> true
            in
            let panicked = panicked || snd (unmount fs) in
            (api, panicked, Some fs, verified))
    | W.Umount_op -> (
        match mount () with
        | None, api, panicked -> (api, panicked, None, true)
        | Some fs, _, _ ->
            ignore (guard (fun () -> w.W.run fs));
            arm ();
            let api, panicked = unmount fs in
            (api, panicked, Some fs, true))
    | W.Mount_op | W.Recovery_op -> (
        arm ();
        match mount () with
        | Some fs, api, _ -> (api, snd (unmount fs), Some fs, true)
        | None, api, panicked -> (api, panicked, None, true))
  in
  let b2s b = if b then "1" else "0" in
  feed_string ctx
    (Printf.sprintf "api=%s panic=%s verify=%s\n"
       (match api with Ok () -> "ok" | Error e -> Errno.to_string e)
       (b2s panicked) (b2s verified));
  (match fs with
  | None -> ()
  | Some (Fs.Boxed ((module F), t)) ->
      feed_string ctx (Printf.sprintf "ro=%s\n" (b2s (F.is_readonly t)));
      List.iter
        (fun e -> feed_string ctx (Format.asprintf "%a\n" Klog.pp_entry e))
        (Klog.entries (F.klog t)));
  let written = Hashtbl.create 64 in
  let trace = Fault.trace r.inj in
  List.iteri
    (fun i (e : Fault.event) ->
      if e.Fault.dir = Fault.Write then Hashtbl.replace written e.Fault.block ();
      feed_string ctx
        (Printf.sprintf "%d %s %d %s\n" i
           (match e.Fault.dir with Fault.Read -> "R" | Fault.Write -> "W")
           e.Fault.block
           (match e.Fault.outcome with
           | Fault.Io_ok -> "ok"
           | Fault.Io_corrupted -> "corrupt"
           | Fault.Io_error err -> Dev.error_to_string err)))
    trace;
  List.iter
    (fun b -> Sha1.feed ctx (Memdisk.peek r.disk b))
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys written)));
  trace

let column_digest brand (w : W.t) =
  let (Fs.Brand (module F)) = brand in
  let r = rig_of brand in
  let ctx = Sha1.init () in
  let trace = run_one ctx brand r w ~arm:(fun () -> ()) in
  let labels = F.classifier (Memdisk.peek r.disk) in
  let targets = ref [] in
  List.iter
    (fun (e : Fault.event) ->
      let key = (e.Fault.dir, labels e.Fault.block) in
      if not (List.mem_assoc key !targets) then
        targets := (key, e.Fault.block) :: !targets)
    trace;
  List.iter
    (fun ((dir, label), block) ->
      let kinds =
        match dir with
        | Fault.Write -> [ Fault.Fail_write ]
        | Fault.Read ->
            [
              Fault.Fail_read;
              Fault.Corrupt
                (match F.corrupt_field label with
                | Some tweak -> Fault.Tweak tweak
                | None -> Fault.Noise block);
            ]
      in
      List.iter
        (fun kind ->
          feed_string ctx (Printf.sprintf "-- %s@%d\n" label block);
          ignore
            (run_one ctx brand r w ~arm:(fun () ->
                 ignore (Fault.arm r.inj (Fault.rule (Fault.Block block) kind)))))
        kinds)
    (List.rev !targets);
  Sha1.to_hex (Sha1.finalize ctx)

(* Recorded from the models as they stand. A change meant to keep
   behaviour leaves every digest as it is; one that moves a digest says
   which column and why. *)
let pinned =
  [
    ( "reiserfs",
      [
        ('a', "cc3a915c9cde647afe6184a19bdabf3352e47dc6");
        ('b', "578d2dce5b562790534317cfb259713b7a86cacf");
        ('c', "60254fab7ad737913a42bcea800fb387b4ae88d2");
        ('d', "32e320b747cc762802ac1fc87d340a1c2a132ba4");
        ('e', "3347942ddb3f0e58073b564b73e7b033112a744f");
        ('f', "6aed0cfae6e7fbea26b0c7f3550709025230831b");
        ('g', "a5310609d0849970fbe9dafd4c7ee4e7207bccab");
        ('h', "3e03d5106b77d3cbf978d44dd04108415e16f185");
        ('i', "d0d7c39a3e3bc0163e4b68003e59f1df674499c4");
        ('j', "131ec9cc9503cfc3e34774b6d247af82f991d026");
        ('k', "26b2ebf0b3862308e317ed6dde06e6cc75dd4d41");
        ('l', "b32d2e81572ed6af5ee9b180047947f9ec9ec3d4");
        ('m', "f7b06dd6131796ac155571b369dfbb8748516d8a");
        ('n', "a4778252d4e5990dc53b2c559ac82129cfbf3446");
        ('o', "9cd95e33fa87b2c06e5164354b68024ca16e2f8a");
        ('p', "ee5408cfea3055570eeaf3879a4c940a3abc3c70");
        ('q', "84f97badc98e89156402bcab8fab333ae95abc01");
        ('r', "64426a8920feb3dc0f68c5c01431649ea9e14656");
        ('s', "cec4667b30ba12769a4ded1ff87a8537b9734de7");
        ('t', "5aedfa74dbfddd5dd03a92770fc632800a9c4896");
      ] );
    ( "jfs",
      [
        ('a', "7f2e7d6d12724bb749a1426ea90a62d987091e15");
        ('b', "170c65cbfe89bae91be314c2db92bcce40c6dc3d");
        ('c', "5ce060a0ff1c8404753cd6b91b59a362c8b79331");
        ('d', "94ac6619502b108c2e953bd9b8015e330eb8b795");
        ('e', "170c65cbfe89bae91be314c2db92bcce40c6dc3d");
        ('f', "562706d5e33f8e1be839c3de7c85bd48c57f502c");
        ('g', "279d775bd98e21e99de1e633a710a599986436cb");
        ('h', "f7f6e5aed73c2b9dac118528b8bce3f2328264ae");
        ('i', "e3f29819354b7d357ed140ab2fe6a0214778ad98");
        ('j', "2ef8787cb94eee27bac9894f72a0017e26014e37");
        ('k', "6fa322d81549a906fe209576bc94635469b77771");
        ('l', "cfada527ab5aab739afb8e0389092773a489ff0a");
        ('m', "e46a57c2c168e2799698093388feeb71b7223b6f");
        ('n', "476038ab5a8790d92dc51f150a4742186259fbb5");
        ('o', "1bf8c8cb51bf8efa42e25704f846f3fe4670d9e9");
        ('p', "a244ab6bc19671ce4420c360b05d50f9c642d0d3");
        ('q', "9e3d7b1f52de40495b6c16a632bec3295a33cff2");
        ('r', "7049a8719b27fc23b0acc71f653b43b67fe63e93");
        ('s', "0da500e593664209fb1d3ac936ea019a042def9e");
        ('t', "981c0718f11b94f3b6e35d28fbd106bee1bd43e8");
      ] );
    ( "ntfs",
      [
        ('a', "4b687971a7eafbb987afcfd3fb1e6bd83fbc50c5");
        ('b', "d0c6ac4ac5175bed200f3854379fd666e456a105");
        ('c', "c89598e3831e9622804d027b01f5921adabd7f53");
        ('d', "ee0288f051c22aab5e699b1e4e4396149a7713ee");
        ('e', "3f8570073bc6c958d81eaf5f8cb9e887540df327");
        ('f', "433a36aa9b3452467772a9eca4ddb8d049fd2681");
        ('g', "37f0c47b345791fa7e97b5fcde671936c85a455f");
        ('h', "6ce8d9388b70d11805bc0e4c8faddc7c7164e6b0");
        ('i', "b6beff21fe5a360dcc3b6cdf310e657bbad90a2b");
        ('j', "464b22741564dc12b6c7742d0644dd301a5af0e2");
        ('k', "006d9deab4e06f1200a78bbe3564bea579990525");
        ('l', "963742ce27ed439537dd5e2ad317dd8eca314039");
        ('m', "203a8fb8388a5464a6d09e3c3c441fe35fcde725");
        ('n', "b47f76f3cd03455c0931613f4bd527f68c113b7f");
        ('o', "564a8c084c4351155b5160fddacea46af90f00c6");
        ('p', "0b7dadc52d45dfb98071caab146ee3912ae324c3");
        ('q', "927ec8468d98a8ecb00c66dad12d659af3ccc92e");
        ('r', "cc67b90cdab18b6318c5c4e249ac14d351b158ca");
        ('s', "0b7dadc52d45dfb98071caab146ee3912ae324c3");
        ('t', "90096a10357ed6dad2c541636f826231545a585d");
      ] );
  ]

let suite brand =
  let name = Fs.brand_name brand in
  let pins = List.assoc name pinned in
  ( "streams." ^ name,
    List.map
      (fun (w : W.t) ->
        Alcotest.test_case (Printf.sprintf "%c %s" w.W.col w.W.name) `Quick
          (fun () ->
            Alcotest.(check string) "request-stream digest"
              (List.assoc w.W.col pins) (column_digest brand w)))
      W.all )

let suites =
  [
    suite Iron_reiserfs.Reiserfs.brand;
    suite Iron_jfs.Jfs.brand;
    suite Iron_ntfs.Ntfs.brand;
  ]
