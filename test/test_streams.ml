(* Request-stream pins for all seven brands.

   Each fingerprint column (Workload.all) runs through the fault
   injector with tracing on, once fault-free and once per fault the
   fingerprinter would arm for it: a failed read, a type-aware
   corruption and a failed write of the first block of each type the
   fault-free run touched. The ops, mount and umount columns start from
   the fixture's base image and the recovery column from the crash
   image. Every run feeds one SHA-1 per column: the whole request trace
   (position, direction, block, outcome) from mount to unmount, the API
   result, panic and read-only flags, the verify verdict, the klog
   lines and the final bytes of every block written inside the volume.

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

let rigs = Hashtbl.create 7

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
  (* A write past the volume is in the trace, refused; it left no bytes
     to hash. *)
  List.iter
    (fun b ->
      if b >= 0 && b < num_blocks then Sha1.feed ctx (Memdisk.peek r.disk b))
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
    ( "ext3",
      [
        ('a', "e38a07a52611c541ab75e4c69e10d6b8d419e36c");
        ('b', "37a3713b321d822282afd41a0ea168eb48dc2cb2");
        ('c', "bc7a5a87895ef2dd8d33bb4eb2fbd6a76066897e");
        ('d', "b2a26de24f6dca490956c32efc907d055946e7b4");
        ('e', "771f667aef27c68c2cbef26ef70aab3abb80450e");
        ('f', "f9b89e63dfd2d015eb42dceb8056a98f90846ee7");
        ('g', "0aa57b6e415ff9601a3354470b36ce641a16d6b5");
        ('h', "90ec0e8fd6a0141fe8703b8571bbbeb6369f1345");
        ('i', "bfc7bd57c7ef97b7a1d4d828c7f90f8abcf96b48");
        ('j', "009a8bebfe35c2e2f9c25a3728928bd0f25b2550");
        ('k', "3b1695be9a4a6434a2a8f276dac86a77af4672a7");
        ('l', "be8fe432e1388d62676b9b83e74f1ab7571e30b3");
        ('m', "785598c4a311d917278f02a0f7fa098615e396b0");
        ('n', "764e86c589514eca6b5af2430f0ee1a8d9dfadfd");
        ('o', "b1c58dd186c76a8f44ac9c47ed331ead86f0cdb7");
        ('p', "e78812a0e0825dede0fbb7a55b2ae8c830268290");
        ('q', "41187e3505f5d440800a6e5396d7d96609e99350");
        ('r', "7765da219683f2f04d705014af24193165144d52");
        ('s', "4968416e4a55822c7681cdaedae2cc9e22e25938");
        ('t', "36e38e5af1a1f1cc589fffe79c5cf78396cb1366");
      ] );
    ( "ext3-writeback",
      [
        ('a', "e38a07a52611c541ab75e4c69e10d6b8d419e36c");
        ('b', "37a3713b321d822282afd41a0ea168eb48dc2cb2");
        ('c', "bc7a5a87895ef2dd8d33bb4eb2fbd6a76066897e");
        ('d', "b2a26de24f6dca490956c32efc907d055946e7b4");
        ('e', "771f667aef27c68c2cbef26ef70aab3abb80450e");
        ('f', "f9b89e63dfd2d015eb42dceb8056a98f90846ee7");
        ('g', "de3bef66832d37130bc3f4dc4be12f89964f6d5d");
        ('h', "90ec0e8fd6a0141fe8703b8571bbbeb6369f1345");
        ('i', "bfc7bd57c7ef97b7a1d4d828c7f90f8abcf96b48");
        ('j', "009a8bebfe35c2e2f9c25a3728928bd0f25b2550");
        ('k', "3b1695be9a4a6434a2a8f276dac86a77af4672a7");
        ('l', "357233f2e10f57cf16894d79330f03f6ac3875fc");
        ('m', "2cda52277164cad025f3a814c5fe42ed0c39279e");
        ('n', "764e86c589514eca6b5af2430f0ee1a8d9dfadfd");
        ('o', "b1c58dd186c76a8f44ac9c47ed331ead86f0cdb7");
        ('p', "e78812a0e0825dede0fbb7a55b2ae8c830268290");
        ('q', "7827812782977af7c5d177cf34bfc06aa3e7aace");
        ('r', "b2a779a49abba3b54fd701f9b6babecc4a5ef513");
        ('s', "4968416e4a55822c7681cdaedae2cc9e22e25938");
        ('t', "a9cf69aeb77c00a31c868d1e1444e346d71cf94d");
      ] );
    ( "ext3-data",
      [
        ('a', "e38a07a52611c541ab75e4c69e10d6b8d419e36c");
        ('b', "37a3713b321d822282afd41a0ea168eb48dc2cb2");
        ('c', "9b2f8f607fbd1ce9537424eb651cc4596d06d8f4");
        ('d', "b2a26de24f6dca490956c32efc907d055946e7b4");
        ('e', "771f667aef27c68c2cbef26ef70aab3abb80450e");
        ('f', "f9b89e63dfd2d015eb42dceb8056a98f90846ee7");
        ('g', "7976ad96d12f0baebb49ceae3564b7ef5334d639");
        ('h', "bc4090c0de33094cd002e3922ad99db4625c6862");
        ('i', "c7bf9a332209607c82d9fdfbb4dabca986a3018e");
        ('j', "391023acf45712ea051a48493f63f88a168b3f02");
        ('k', "d51a6407f91da770b7144ab557d3ae7e537b10cc");
        ('l', "d8299d0285abfaa8d6e7e1009ed982084e0b1e15");
        ('m', "b639e7fd669131a5d8a9d7b312bab6ccd8b99577");
        ('n', "aad21b2d8a9fb75e8bfaa286fe5d1866ac44013d");
        ('o', "8a8a62eee2b0c976a69a58641ae4c7945e34ea77");
        ('p', "e78812a0e0825dede0fbb7a55b2ae8c830268290");
        ('q', "ac3301345ace3509bd5a52062f7447f32c8a16f2");
        ('r', "aed08797003bf8230513182b46f81539d2616ad5");
        ('s', "baabbea200c88a9b0c47bc4fa3f66fcc95b9275c");
        ('t', "b9bb7bbc8944d35a0810753db4f7406af962038c");
      ] );
    ( "ixt3",
      [
        ('a', "b3fde69668e5a9900c3f7d34b9f3de0014da618a");
        ('b', "0102ea4f5c4dee2aca07594e8aaa19ff36a772d4");
        ('c', "c2bdc5c72c38fbb15bf6dcfbe08e4a965fbc8e44");
        ('d', "797aa924c9fbd38de9af16c88a332edcd588f4e7");
        ('e', "c3f0fb5981e09b5fcec97522e88c81b5fd5d697c");
        ('f', "cf486b88a260f31bf8ede23f990103282748f5a1");
        ('g', "47cf6ef56492a12beab145158bdf88f625e13a21");
        ('h', "1effaf95144e4acfbdbaa0ec7b42c7a639e8efce");
        ('i', "50443c5fbe962e72784d3b29b3f5b79efe528c19");
        ('j', "f09d9c64ba43300827f1928a3fc2be89cf2082bc");
        ('k', "471e020eb862aa758efb5b453be2c86c25ba364c");
        ('l', "79ff62044d5bfdb0ca9e69d4aa9f47866345309d");
        ('m', "a975df104c801ff608b63472eac17876909ee24a");
        ('n', "cf983324c555165573dd92f7b335c20873c11ee6");
        ('o', "4a357eeb7c53c9e48a4a8b00c6519a0fd6032a09");
        ('p', "5017e909b22a6d5dbfcf46f4a3c4708393e069c2");
        ('q', "6059baab64feb77c1cb4db45c3fb2db119adba5e");
        ('r', "26c47407e4b35040b736556dc198e6b9368fb118");
        ('s', "11abc9c88c2d9279b4f5eff22ca966e9637deab6");
        ('t', "5ca40db6374af895479f8092b67b686bbfb621be");
      ] );
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
    suite Iron_ext3.Ext3.std;
    suite Iron_ext3.Modes.writeback;
    suite Iron_ext3.Modes.data;
    suite Iron_ext3.Ext3.ixt3;
    suite Iron_reiserfs.Reiserfs.brand;
    suite Iron_jfs.Jfs.brand;
    suite Iron_ntfs.Ntfs.brand;
  ]
