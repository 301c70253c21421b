(* Tests for the simulated disk and block cache. *)

open Iron_disk

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let small_params =
  { Memdisk.default_params with Memdisk.num_blocks = 64; seed = 1 }

let make () =
  let d = Memdisk.create ~params:small_params () in
  (d, Memdisk.dev d)

let block dev c = Bytes.make dev.Dev.block_size c

let test_read_write_roundtrip () =
  let _, dev = make () in
  let data = block dev 'x' in
  Dev.write_exn dev 5 data;
  check Alcotest.bytes "roundtrip" data (Dev.read_exn dev 5)

let test_fresh_blocks_zero () =
  let _, dev = make () in
  check Alcotest.bytes "zeroed" (block dev '\000') (Dev.read_exn dev 0)

let test_out_of_range () =
  let _, dev = make () in
  (match dev.Dev.read 64 with
  | Error Dev.Enxio -> ()
  | Ok _ | Error Dev.Eio -> Alcotest.fail "expected ENXIO");
  match dev.Dev.write (-1) (block dev 'a') with
  | Error Dev.Enxio -> ()
  | Ok _ | Error Dev.Eio -> Alcotest.fail "expected ENXIO"

let test_wrong_size_write () =
  let _, dev = make () in
  match dev.Dev.write 0 (Bytes.create 7) with
  | Error Dev.Eio -> ()
  | Ok _ | Error Dev.Enxio -> Alcotest.fail "expected EIO"

let test_time_advances () =
  let _, dev = make () in
  let t0 = dev.Dev.now () in
  Dev.write_exn dev 10 (block dev 'a');
  Dev.write_exn dev 50 (block dev 'b');
  check Alcotest.bool "time advanced" true (dev.Dev.now () > t0)

let test_sequential_cheaper_than_random () =
  let mk seed =
    Memdisk.create ~params:{ small_params with Memdisk.seed } ()
  in
  let seq = mk 2 and rnd = mk 2 in
  let sdev = Memdisk.dev seq and rdev = Memdisk.dev rnd in
  for i = 0 to 30 do
    Dev.write_exn sdev i (block sdev 'a')
  done;
  (* Same number of writes, but scattered. *)
  List.iteri
    (fun _ b -> Dev.write_exn rdev b (block rdev 'a'))
    [ 0; 40; 3; 55; 9; 33; 1; 60; 17; 44; 5; 50; 11; 38; 2; 58; 21;
      47; 7; 53; 13; 41; 4; 63; 19; 36; 6; 56; 15; 43; 8 ];
  check Alcotest.bool "sequential faster" true
    ((Memdisk.stats seq).Memdisk.elapsed_ms < (Memdisk.stats rnd).Memdisk.elapsed_ms)

let test_sync_counts_and_charges () =
  let d, dev = make () in
  Dev.write_exn dev 0 (block dev 'a');
  let before = (Memdisk.stats d).Memdisk.elapsed_ms in
  ignore (dev.Dev.sync ());
  let after = (Memdisk.stats d).Memdisk.elapsed_ms in
  check Alcotest.bool "sync with dirty data costs time" true (after > before);
  (* A second sync with nothing dirty is free. *)
  ignore (dev.Dev.sync ());
  check Alcotest.(float 0.0001) "idempotent sync" after
    (Memdisk.stats d).Memdisk.elapsed_ms

let test_snapshot_restore () =
  let d, dev = make () in
  Dev.write_exn dev 3 (block dev 'a');
  let snap = Memdisk.snapshot d in
  Dev.write_exn dev 3 (block dev 'b');
  Dev.write_exn dev 4 (block dev 'c');
  Memdisk.restore d snap;
  check Alcotest.int "stats reset" 0 (Memdisk.stats d).Memdisk.reads;
  check Alcotest.bytes "restored block 3" (block dev 'a') (Dev.read_exn dev 3);
  check Alcotest.bytes "restored block 4" (block dev '\000') (Dev.read_exn dev 4)

let test_time_model_toggle () =
  let d, dev = make () in
  Memdisk.set_time_model d false;
  Dev.write_exn dev 10 (block dev 'a');
  Dev.write_exn dev 55 (block dev 'b');
  check Alcotest.(float 0.0) "no time charged" 0.0 (dev.Dev.now ())

let prop_disk_holds_data =
  QCheck.Test.make ~name:"disk stores independent blocks" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_bound 63))
    (fun blocks ->
      let _, dev = make () in
      List.iteri
        (fun i b -> Dev.write_exn dev b (block dev (Char.chr (65 + (i mod 26)))))
        blocks;
      (* The final write to each block wins. *)
      let final = Hashtbl.create 16 in
      List.iteri (fun i b -> Hashtbl.replace final b (Char.chr (65 + (i mod 26)))) blocks;
      Hashtbl.fold
        (fun b c acc -> acc && Bytes.equal (Dev.read_exn dev b) (block dev c))
        final true)

(* --- Bcache ---------------------------------------------------------- *)

let test_bcache_hit () =
  let d, dev = make () in
  let c = Bcache.create ~capacity:8 dev in
  Dev.write_exn dev 1 (block dev 'z');
  Memdisk.reset_stats d;
  (match Bcache.borrow c 1 with Ok _ -> () | Error _ -> Alcotest.fail "borrow");
  (match Bcache.borrow c 1 with Ok _ -> () | Error _ -> Alcotest.fail "borrow");
  check Alcotest.int "only one device read" 1 (Memdisk.stats d).Memdisk.reads;
  check Alcotest.int "one hit" 1 (Bcache.hits c)

let test_bcache_write_through () =
  let _, dev = make () in
  let c = Bcache.create dev in
  (match Bcache.write c 2 (block dev 'q') with Ok () -> () | Error _ -> assert false);
  check Alcotest.bytes "reached device" (block dev 'q') (Dev.read_exn dev 2)

let test_bcache_eviction () =
  let d, dev = make () in
  let c = Bcache.create ~capacity:4 dev in
  for b = 0 to 7 do
    ignore (Bcache.borrow c b)
  done;
  Memdisk.reset_stats d;
  ignore (Bcache.borrow c 0);
  check Alcotest.int "evicted block re-read from device" 1
    (Memdisk.stats d).Memdisk.reads

let test_bcache_failed_write_keeps_new_data () =
  (* Page-cache semantics: a failed device write leaves memory new and
     disk stale (the behaviour behind ext3's silent write-error loss). *)
  let d, dev = make () in
  Dev.write_exn dev 3 (block dev 'o');
  let inj = Iron_fault.Fault.create dev in
  let fdev = Iron_fault.Fault.dev inj in
  let c = Bcache.create fdev in
  ignore (Iron_fault.Fault.arm inj
            (Iron_fault.Fault.rule (Iron_fault.Fault.Block 3) Iron_fault.Fault.Fail_write));
  (match Bcache.write c 3 (block dev 'n') with
  | Error Dev.Eio -> ()
  | Ok () | Error Dev.Enxio -> Alcotest.fail "expected injected EIO");
  (match Bcache.borrow c 3 with
  | Ok data -> check Alcotest.bytes "cache has new data" (block dev 'n') data
  | Error _ -> Alcotest.fail "cache read");
  check Alcotest.bytes "disk has old data" (block dev 'o') (Memdisk.peek d 3)

let test_bcache_invalidate () =
  let d, dev = make () in
  let c = Bcache.create dev in
  ignore (Bcache.borrow c 5);
  Bcache.invalidate c 5;
  Memdisk.reset_stats d;
  ignore (Bcache.borrow c 5);
  check Alcotest.int "device read after invalidate" 1 (Memdisk.stats d).Memdisk.reads

(* A borrowed buffer is the cache's own: it must keep its bytes through
   everything the cache does afterwards, including the arena churn of
   later fills that once recycled evicted buffers. *)
let holds what c buf =
  if not (Bytes.for_all (Char.equal c) buf) then
    Alcotest.failf "%s: expected a block of %C, got one starting %C" what c
      (Bytes.get buf 0)

let test_bcache_borrow_is_stable () =
  let _, dev = make () in
  for b = 0 to 15 do
    Dev.write_exn dev b (block dev (Char.chr (65 + b)))
  done;
  let c = Bcache.create ~capacity:2 dev in
  let borrow b =
    match Bcache.borrow c b with Ok d -> d | Error _ -> Alcotest.fail "borrow"
  in
  let b0 = borrow 0 in
  check Alcotest.bool "a hit lends the same buffer" true (borrow 0 == b0);
  for b = 1 to 8 do
    ignore (borrow b)
  done;
  holds "kept across FIFO eviction and refills" 'A' b0;
  let b8 = borrow 8 in
  (match Bcache.write c 8 (block dev 'z') with Ok () -> () | Error _ -> assert false);
  holds "kept across a replacing write" 'I' b8;
  holds "the write is what the cache now lends" 'z' (borrow 8);
  let b7 = borrow 7 in
  Bcache.invalidate c 7;
  holds "kept across invalidate" 'H' b7;
  let again = borrow 0 in
  check Alcotest.bool "a refill lends a new buffer" true (again != b0);
  Bcache.invalidate_all c;
  for b = 9 to 15 do
    ignore (borrow b)
  done;
  holds "kept across invalidate_all and refills" 'A' b0;
  holds "refilled buffer kept too" 'A' again

(* [borrow] is a read of the device below with a FIFO resident set in
   front. For any sequence of reads, writes and invalidations over a
   small cache, a model predicts every borrow: the same fault stack read
   directly, behind a table of the blocks the cache should hold, evicted
   in insertion order (an invalidation leaves its block in the order
   queue, as the cache's does). Bytes or error, hit and miss counts and
   the device requests, failed ones included, must all agree. *)
let prop_borrow_same_requests =
  let op =
    QCheck.Gen.(
      pair (int_bound 3) (int_bound 11) >|= fun (k, b) ->
      match k with 0 | 1 -> `Read b | 2 -> `Write b | _ -> `Invalidate b)
  in
  QCheck.Test.make ~name:"borrow = read: bytes, counters, device requests"
    ~count:200
    QCheck.(make Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let capacity = 4 in
      let stack () =
        let _, dev = make () in
        let inj = Iron_fault.Fault.create dev in
        ignore
          (Iron_fault.Fault.arm inj
             (Iron_fault.Fault.rule
                ~persistence:(Iron_fault.Fault.Transient 2)
                (Iron_fault.Fault.Block 5) Iron_fault.Fault.Fail_read));
        (inj, Iron_fault.Fault.dev inj)
      in
      let ia, da = stack () and ib, below = stack () in
      let c = Bcache.create ~capacity da in
      let resident = Hashtbl.create 8 and order = Queue.create () in
      let hits = ref 0 and misses = ref 0 in
      let insert blk data =
        if not (Hashtbl.mem resident blk) then begin
          while
            Hashtbl.length resident >= capacity && not (Queue.is_empty order)
          do
            Hashtbl.remove resident (Queue.pop order)
          done;
          Queue.push blk order
        end;
        Hashtbl.replace resident blk data
      in
      let model_read blk =
        match Hashtbl.find_opt resident blk with
        | Some data ->
            incr hits;
            Ok data
        | None ->
            incr misses;
            let r = below.Dev.read blk in
            Result.iter (insert blk) r;
            r
      in
      let same =
        List.for_all
          (function
            | `Read blk -> (
                match (Bcache.borrow c blk, model_read blk) with
                | Ok x, Ok y -> Bytes.equal x y
                | Error e, Error f -> e = f
                | Ok _, Error _ | Error _, Ok _ -> false)
            | `Write blk ->
                let data = Bytes.make 4096 (Char.chr (97 + blk)) in
                insert blk (Bytes.copy data);
                Bcache.write c blk data = below.Dev.write blk data
            | `Invalidate blk ->
                Bcache.invalidate c blk;
                Hashtbl.remove resident blk;
                true)
          ops
      in
      same
      && Bcache.hits c = !hits
      && Bcache.misses c = !misses
      && Iron_fault.Fault.trace ia = Iron_fault.Fault.trace ib)

(* The digest memo is exact. Over random fills, borrows, replacing
   writes, invalidations and evicting refills of a small cache, the
   block's current buffer gets the SHA-1 of its bytes (asked twice: the
   second answer comes from the memo), while a copy of that buffer, or a
   buffer the cache has dropped, gets no answer. *)
let prop_digest_exact =
  let op =
    QCheck.Gen.(
      triple (int_bound 8) (int_bound 11) (int_bound 25) >|= fun (k, b, c) ->
      match k with
      | 0 | 1 | 2 -> `Borrow b
      | 3 | 4 -> `Write (b, Char.chr (97 + c))
      | 5 | 6 -> `Digest b
      | 7 -> `Invalidate b
      | _ -> `Invalidate_all)
  in
  QCheck.Test.make ~name:"digest: current buffer only, never stale" ~count:300
    QCheck.(make Gen.(list_size (int_range 1 80) op))
    (fun ops ->
      let _, dev = make () in
      for b = 0 to 11 do
        Dev.write_exn dev b (block dev (Char.chr (65 + b)))
      done;
      let c = Bcache.create ~capacity:4 dev in
      let lent = ref [] in
      let answer b buf = Option.map Iron_util.Sha1.to_hex (Bcache.digest c b buf) in
      let exact b =
        match Bcache.peek c b with
        | None -> true
        | Some cur ->
            let want = Some (Iron_util.Sha1.to_hex (Iron_util.Sha1.digest cur)) in
            answer b cur = want
            && answer b cur = want
            && answer b (Bytes.copy cur) = None
      in
      let dropped_get_none () =
        List.for_all
          (fun (b, buf) ->
            match Bcache.peek c b with
            | Some cur when cur == buf -> true
            | Some _ | None -> answer b buf = None)
          !lent
      in
      List.for_all
        (fun op ->
          (match op with
          | `Borrow b -> (
              match Bcache.borrow c b with
              | Ok buf -> lent := (b, buf) :: !lent
              | Error _ -> ())
          | `Write (b, ch) -> ignore (Bcache.write c b (block dev ch))
          | `Digest _ -> ()
          | `Invalidate b -> Bcache.invalidate c b
          | `Invalidate_all -> Bcache.invalidate_all c);
          (match op with
          | `Borrow b | `Write (b, _) | `Digest b -> exact b
          | `Invalidate _ | `Invalidate_all -> true)
          && dropped_get_none ())
        ops)

let suites =
  [
    ( "disk.memdisk",
      [
        Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
        Alcotest.test_case "fresh blocks zero" `Quick test_fresh_blocks_zero;
        Alcotest.test_case "out of range" `Quick test_out_of_range;
        Alcotest.test_case "wrong-size write" `Quick test_wrong_size_write;
        Alcotest.test_case "time advances" `Quick test_time_advances;
        Alcotest.test_case "sequential cheaper" `Quick test_sequential_cheaper_than_random;
        Alcotest.test_case "sync charges rotation" `Quick test_sync_counts_and_charges;
        Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
        Alcotest.test_case "time model toggle" `Quick test_time_model_toggle;
        qtest prop_disk_holds_data;
      ] );
    ( "disk.bcache",
      [
        Alcotest.test_case "cache hit" `Quick test_bcache_hit;
        Alcotest.test_case "write-through" `Quick test_bcache_write_through;
        Alcotest.test_case "eviction" `Quick test_bcache_eviction;
        Alcotest.test_case "failed write keeps new data" `Quick
          test_bcache_failed_write_keeps_new_data;
        Alcotest.test_case "invalidate" `Quick test_bcache_invalidate;
        Alcotest.test_case "borrowed buffers never change" `Quick
          test_bcache_borrow_is_stable;
        qtest prop_borrow_same_requests;
        qtest prop_digest_exact;
      ] );
  ]
