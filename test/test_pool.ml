(* Tests for the domain worker pool that backs campaign execution.

   The executor's determinism contract rests on two properties of
   [Pool.map]: results come back slotted by input index (order
   preserved), and every job runs exactly once — even when other jobs
   in the same batch raise.  Both are checked here as qcheck
   properties; a few directed cases cover the edges (empty input,
   jobs > workers, exception propagation picking the lowest index). *)

open Iron_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* An explicit pool of [n] workers: on a host where [map_jobs] would
   clamp to one worker and run on the caller, this still exercises the
   queue, the chunking and the worker domains. *)
let pooled ?on_job n f xs = Pool.with_pool n (fun p -> Pool.map ?on_job p f xs)

let test_map_empty () =
  Pool.with_pool 4 (fun p ->
      check Alcotest.(list int) "empty" [] (Pool.map p (fun x -> x) []))

let test_map_order_small () =
  Pool.with_pool 3 (fun p ->
      check
        Alcotest.(list int)
        "squares in order"
        [ 0; 1; 4; 9; 16; 25; 36 ]
        (Pool.map p (fun x -> x * x) [ 0; 1; 2; 3; 4; 5; 6 ]))

let test_map_more_jobs_than_workers () =
  let xs = List.init 200 Fun.id in
  Pool.with_pool 2 (fun p ->
      check
        Alcotest.(list int)
        "200 jobs over 2 workers"
        (List.map (fun x -> x + 1) xs)
        (Pool.map p (fun x -> x + 1) xs))

let test_map_raise_propagates_lowest_index () =
  (* Two jobs raise; the caller must see the lowest-index failure, and
     every job must still have been attempted (exactly-once). *)
  let ran = Array.make 10 0 in
  let m = Mutex.create () in
  Pool.with_pool 4 (fun p ->
      match
        Pool.map p
          (fun i ->
            Mutex.lock m;
            ran.(i) <- ran.(i) + 1;
            Mutex.unlock m;
            if i = 3 || i = 7 then failwith (Printf.sprintf "job %d" i);
            i)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          check Alcotest.string "lowest-index failure wins" "job 3" msg);
  Array.iteri
    (fun i n -> check Alcotest.int (Printf.sprintf "job %d ran once" i) 1 n)
    ran

let test_map_jobs_sequential_matches_pool () =
  let xs = List.init 50 (fun i -> i * 3) in
  let f x = (x * 7919) mod 104729 in
  check
    Alcotest.(list int)
    "jobs=1 matches jobs=4"
    (Pool.map_jobs ~jobs:1 f xs)
    (Pool.map_jobs ~jobs:4 f xs);
  check
    Alcotest.(list int)
    "jobs=1 matches a 4-worker pool"
    (Pool.map_jobs ~jobs:1 f xs)
    (pooled 4 f xs)

(* One worker plus a sleeping caller is sequential execution: such a
   call runs on the caller and spawns no domain. *)
let test_single_worker_runs_on_caller () =
  let me = (Domain.self () :> int) in
  let ran_on = Pool.map_jobs ~jobs:2 (fun _ -> (Domain.self () :> int)) [ 1; 2; 3; 4 ] in
  check Alcotest.bool "on the caller exactly when the pool would have one worker"
    (Domain.recommended_domain_count () <= 2)
    (List.for_all (( = ) me) ran_on)

(* The chunked submission path (jobs per queue entry scales with
   input size, capped at [max_chunk]) must stay invisible: for input
   sizes straddling every interesting boundary of the heuristic —
   empty, single, one chunk, one chunk ± 1, cap × workers, and a
   campaign-sized run — the parallel result equals the sequential
   baseline and the per-job telemetry hook fires exactly once per
   job. *)
let test_chunk_heuristic_boundaries () =
  let f x = (x * 31) lxor (x lsr 2) in
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i * 5) in
      let fired = Atomic.make 0 in
      let on_job ~queue_ms:_ ~run_ms:_ = Atomic.incr fired in
      let seq = Pool.map_jobs ~jobs:1 f xs in
      let par = Pool.map_jobs ~on_job ~jobs:4 f xs in
      let pool = pooled ~on_job 4 f xs in
      check
        Alcotest.(list int)
        (Printf.sprintf "n=%d: jobs=1 = jobs=4" n)
        seq par;
      check
        Alcotest.(list int)
        (Printf.sprintf "n=%d: jobs=1 = 4-worker pool" n)
        seq pool;
      check Alcotest.int
        (Printf.sprintf "n=%d: telemetry once per job" n)
        (2 * n) (Atomic.get fired))
    [ 0; 1; 2; 15; 16; 17; 63; 64; 65; 200; 1000 ]

let test_default_jobs_positive () =
  check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* --- properties ------------------------------------------------------ *)

let prop_map_preserves_order =
  QCheck.Test.make ~name:"Pool.map preserves input order" ~count:50
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (n, xs) ->
      let f x = (x * 2654435761) lxor 0x5A5A in
      Pool.map_jobs ~jobs:n f xs = List.map f xs && pooled n f xs = List.map f xs)

let prop_map_runs_each_job_exactly_once =
  QCheck.Test.make ~name:"Pool.map runs every job exactly once" ~count:50
    QCheck.(pair (int_range 1 6) (int_bound 60))
    (fun (n, len) ->
      List.for_all
        (fun map ->
          let ran = Array.make (max 1 len) 0 in
          let m = Mutex.create () in
          let _ =
            map
              (fun i ->
                Mutex.lock m;
                ran.(i) <- ran.(i) + 1;
                Mutex.unlock m;
                i)
              (List.init len Fun.id)
          in
          Array.for_all (fun c -> c = 1) (Array.sub ran 0 len))
        [ Pool.map_jobs ~jobs:n; pooled n ])

let prop_map_exactly_once_with_raising_jobs =
  QCheck.Test.make ~name:"Pool.map exactly-once survives raising jobs"
    ~count:50
    QCheck.(triple (int_range 1 6) (int_range 1 40) (int_bound 39))
    (fun (n, len, bad) ->
      let bad = bad mod len in
      List.for_all
        (fun map ->
          let ran = Array.make len 0 in
          let m = Mutex.create () in
          (match
             map
               (fun i ->
                 Mutex.lock m;
                 ran.(i) <- ran.(i) + 1;
                 Mutex.unlock m;
                 if i = bad then raise Exit;
                 i)
               (List.init len Fun.id)
           with
          | _ -> ()
          | exception Exit -> ());
          Array.for_all (fun c -> c = 1) ran)
        [ Pool.map_jobs ~jobs:n; pooled n ])

let suites =
  [
    ( "util.pool",
      [
        Alcotest.test_case "map on empty list" `Quick test_map_empty;
        Alcotest.test_case "map keeps order" `Quick test_map_order_small;
        Alcotest.test_case "more jobs than workers" `Quick
          test_map_more_jobs_than_workers;
        Alcotest.test_case "exception: lowest index, all jobs run" `Quick
          test_map_raise_propagates_lowest_index;
        Alcotest.test_case "map_jobs 1 = map_jobs 4" `Quick
          test_map_jobs_sequential_matches_pool;
        Alcotest.test_case "one worker: jobs run on the caller" `Quick
          test_single_worker_runs_on_caller;
        Alcotest.test_case "chunk heuristic invisible at every boundary" `Quick
          test_chunk_heuristic_boundaries;
        Alcotest.test_case "default_jobs positive" `Quick
          test_default_jobs_positive;
        qtest prop_map_preserves_order;
        qtest prop_map_runs_each_job_exactly_once;
        qtest prop_map_exactly_once_with_raising_jobs;
      ] );
  ]
