(* Unit and property tests for iron_util: codecs, bitmaps, CRC32, SHA-1,
   PRNG. *)

open Iron_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Codec ----------------------------------------------------------- *)

let test_codec_roundtrip_fixed () =
  let buf = Bytes.create 64 in
  let w = Codec.writer buf in
  Codec.put_u8 w 0xAB;
  Codec.put_u16 w 0xBEEF;
  Codec.put_u32 w 0xDEADBEEF;
  Codec.put_u64 w 0x0123456789ABCDEFL;
  Codec.put_string w "hello";
  let r = Codec.reader buf in
  check Alcotest.int "u8" 0xAB (Codec.get_u8 r);
  check Alcotest.int "u16" 0xBEEF (Codec.get_u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Codec.get_u32 r);
  check Alcotest.int64 "u64" 0x0123456789ABCDEFL (Codec.get_u64 r);
  check Alcotest.string "string" "hello" (Codec.get_string r 5)

let test_codec_overrun () =
  let buf = Bytes.create 2 in
  let r = Codec.reader buf in
  let _ = Codec.get_u16 r in
  Alcotest.check_raises "read past end"
    (Codec.Decode_error "codec: read of 4 bytes at 2 overruns buffer of 2")
    (fun () -> ignore (Codec.get_u32 r))

let test_codec_write_overrun () =
  let buf = Bytes.create 3 in
  let w = Codec.writer buf in
  Codec.put_u16 w 1;
  (try
     Codec.put_u32 w 2;
     Alcotest.fail "expected Decode_error"
   with Codec.Decode_error _ -> ())

let prop_codec_u32_roundtrip =
  QCheck.Test.make ~name:"codec u32 roundtrip" ~count:200
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
      let buf = Bytes.create 4 in
      Codec.write_u32 buf 0 v;
      Codec.read_u32 buf 0 = v)

let prop_codec_u64_roundtrip =
  QCheck.Test.make ~name:"codec u64 roundtrip" ~count:200 QCheck.int64
    (fun v ->
      let buf = Bytes.create 8 in
      let w = Codec.writer buf in
      Codec.put_u64 w v;
      Codec.get_u64 (Codec.reader buf) = v)

(* --- CRC32 ----------------------------------------------------------- *)

let test_crc32_vectors () =
  (* Standard check value for "123456789". *)
  check Alcotest.int "check value" 0xCBF43926 (Crc32.digest_string "123456789");
  check Alcotest.int "empty" 0 (Crc32.digest_string "");
  check Alcotest.int "a" 0xE8B7BE43 (Crc32.digest_string "a")

let prop_crc32_incremental =
  QCheck.Test.make ~name:"crc32 incremental = one-shot" ~count:100
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let whole = Crc32.digest_string (a ^ b) in
      let part =
        Crc32.update (Crc32.digest_string a) (Bytes.of_string b)
      in
      whole = part)

(* --- SHA-1 ----------------------------------------------------------- *)

let test_sha1_vectors () =
  let hex s = Sha1.to_hex (Sha1.digest_string s) in
  check Alcotest.string "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (hex "abc");
  check Alcotest.string "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (hex "");
  check Alcotest.string "448-bit"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  (* One million 'a's. *)
  let big = String.make 1_000_000 'a' in
  check Alcotest.string "1M a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f" (hex big)

let test_sha1_raw_roundtrip () =
  let d = Sha1.digest_string "roundtrip" in
  check Alcotest.bool "of_raw . to_raw" true (Sha1.equal d (Sha1.of_raw (Sha1.to_raw d)))

let prop_sha1_incremental =
  QCheck.Test.make ~name:"sha1 incremental = one-shot" ~count:100
    QCheck.(list small_string)
    (fun parts ->
      let whole = Sha1.digest_string (String.concat "" parts) in
      let ctx = Sha1.init () in
      List.iter (fun p -> Sha1.feed ctx (Bytes.of_string p)) parts;
      Sha1.equal whole (Sha1.finalize ctx))

let prop_sha1_injective_smoke =
  QCheck.Test.make ~name:"sha1 distinguishes single bit flips" ~count:100
    QCheck.(pair (string_of_size (QCheck.Gen.return 64)) (int_bound 511))
    (fun (s, bit) ->
      let b = Bytes.of_string s in
      let b' = Bytes.copy b in
      let i = bit / 8 in
      Bytes.set b' i (Char.chr (Char.code (Bytes.get b' i) lxor (1 lsl (bit mod 8))));
      not (Sha1.equal (Sha1.digest b) (Sha1.digest b')))

(* --- Hexdump ---------------------------------------------------------- *)

let test_hexdump_shape () =
  let out =
    Format.asprintf "%a" Hexdump.pp (Bytes.of_string "IRON file systems!")
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  check Alcotest.int "18 bytes = two lines" 2 (List.length lines);
  check Alcotest.bool "offset column" true
    (String.length (List.hd lines) > 8 && String.sub (List.hd lines) 0 8 = "00000000");
  check Alcotest.bool "ascii gutter shows text" true
    (let rec find i s =
       i + 4 <= String.length s && (String.sub s i 4 = "IRON" || find (i + 1) s)
     in
     find 0 (List.hd lines))

let test_hexdump_nonprintable_dotted () =
  let out = Format.asprintf "%a" Hexdump.pp (Bytes.make 4 '\001') in
  check Alcotest.bool "control bytes become dots" true
    (let rec find i =
       i + 4 <= String.length out && (String.sub out i 4 = "...." || find (i + 1))
     in
     find 0)

let test_hexdump_prefix () =
  let b = Bytes.make 256 'x' in
  let full = Format.asprintf "%a" Hexdump.pp b in
  let short = Format.asprintf "%a" (Hexdump.pp_prefix 16) b in
  check Alcotest.bool "prefix is shorter" true
    (String.length short < String.length full);
  check Alcotest.int "one line" 1
    (List.length (String.split_on_char '\n' (String.trim short)))

(* --- PRNG ------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  check Alcotest.bool "different seeds differ" true (Prng.int64 a <> Prng.int64 b)

let test_prng_split_independent () =
  let parent = Prng.create 7 in
  let c1 = Prng.split parent in
  let c2 = Prng.split parent in
  check Alcotest.bool "children differ" true (Prng.int64 c1 <> Prng.int64 c2)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"prng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_prng_float_bounds =
  QCheck.Test.make ~name:"prng float stays in bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Prng.create seed in
      let v = Prng.float rng 10.0 in
      v >= 0.0 && v < 10.0)

(* [fill_bytes] is [byte] in a loop, state included: the same bytes,
   and the next draw equal too. *)
let prop_prng_fill_bytes_stream =
  QCheck.Test.make ~name:"prng fill_bytes = byte loop, same state after"
    ~count:200
    QCheck.(pair int (int_range 0 9000))
    (fun (seed, n) ->
      let a = Prng.create seed and b = Prng.create seed in
      let filled = Bytes.create n in
      Prng.fill_bytes a filled;
      let looped = Bytes.init n (fun _ -> Prng.byte b) in
      Bytes.equal filled looped && Int64.equal (Prng.int64 a) (Prng.int64 b))

let test_prng_shuffle_permutes () =
  let rng = Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- Bitmap ---------------------------------------------------------- *)

(* Buffers of up to 8 bytes where about half the bytes are 0xFF, so the
   whole-byte step is taken often, and bounds anywhere in or past the
   buffer's bits: [from] and [limit] need not be multiples of 8, and
   [from >= limit] is common. *)
let bitmap_case =
  let open QCheck.Gen in
  let byte = oneof [ return '\xFF'; return '\xFF'; char; return '\000' ] in
  bytes_size ~gen:byte (int_range 1 8) >>= fun buf ->
  let bits = 8 * Bytes.length buf in
  map2 (fun from limit -> (buf, from, limit)) (int_range 0 bits) (int_range 0 bits)

let show_bitmap_case (buf, from, limit) =
  Printf.sprintf "buf=%S from=%d limit=%d" (Bytes.to_string buf) from limit

let prop_bitmap_find_clear =
  QCheck.Test.make ~name:"find_clear is the first clear bit in [from, limit)"
    ~count:2000
    (QCheck.make ~print:show_bitmap_case bitmap_case)
    (fun (buf, from, limit) ->
      let rec scan i =
        if i >= limit then None
        else if Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) = 0 then Some i
        else scan (i + 1)
      in
      Bitmap.find_clear ~from buf limit = scan from)

let prop_bitmap_set_get =
  QCheck.Test.make ~name:"set then get round-trips and leaves other bits"
    ~count:500
    (QCheck.make ~print:show_bitmap_case bitmap_case)
    (fun (buf, i, _) ->
      let i = min i ((8 * Bytes.length buf) - 1) in
      List.for_all
        (fun on ->
          let b = Bytes.copy buf in
          Bitmap.set b i on;
          Bitmap.get b i = on
          && List.for_all
               (fun j -> j = i || Bitmap.get b j = Bitmap.get buf j)
               (List.init (8 * Bytes.length buf) Fun.id))
        [ true; false ])

let test_bitmap_defaults () =
  let buf = Bytes.of_string "\xFF\xFF\x7F" in
  check Alcotest.(option int) "from 0" (Some 23) (Bitmap.find_clear buf 24);
  check Alcotest.(option int) "limit before it" None (Bitmap.find_clear buf 23);
  check Alcotest.(option int) "full" None (Bitmap.find_clear ~from:3 buf 16)

let suites =
  [
    ( "util.codec",
      [
        Alcotest.test_case "fixed roundtrip" `Quick test_codec_roundtrip_fixed;
        Alcotest.test_case "read overrun" `Quick test_codec_overrun;
        Alcotest.test_case "write overrun" `Quick test_codec_write_overrun;
        qtest prop_codec_u32_roundtrip;
        qtest prop_codec_u64_roundtrip;
      ] );
    ( "util.bitmap",
      [
        Alcotest.test_case "edges" `Quick test_bitmap_defaults;
        qtest prop_bitmap_find_clear;
        qtest prop_bitmap_set_get;
      ] );
    ( "util.crc32",
      [
        Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
        qtest prop_crc32_incremental;
      ] );
    ( "util.sha1",
      [
        Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
        Alcotest.test_case "raw roundtrip" `Quick test_sha1_raw_roundtrip;
        qtest prop_sha1_incremental;
        qtest prop_sha1_injective_smoke;
      ] );
    ( "util.hexdump",
      [
        Alcotest.test_case "shape" `Quick test_hexdump_shape;
        Alcotest.test_case "nonprintable dotted" `Quick test_hexdump_nonprintable_dotted;
        Alcotest.test_case "prefix" `Quick test_hexdump_prefix;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_prng_split_independent;
        Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
        qtest prop_prng_int_bounds;
        qtest prop_prng_float_bounds;
        qtest prop_prng_fill_bytes_stream;
      ] );
  ]
