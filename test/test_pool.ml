(* Tests for the domain fan-out that backs campaign execution.

   The executor's determinism contract rests on two properties of
   [Pool.map_on]: results come back slotted by input index (order
   preserved), and every job runs exactly once — even when other jobs
   in the same chunk raise.  Both are checked here as qcheck
   properties; a few directed cases cover the edges (empty input,
   more jobs than domains, exception propagation picking the lowest
   index, the domain bound, and a one-domain call staying on the
   caller). *)

open Iron_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* [n] explicit domains, the caller included: on a host where
   [map_jobs] would clamp to one domain and run on the caller, this
   still exercises the cursor, the chunking and the spawned domains. *)
let on n f xs = Pool.map_on ~domains:n f xs

let test_map_empty () =
  check Alcotest.(list int) "empty" [] (on 4 (fun x -> x) []);
  check Alcotest.(list int) "empty, map_jobs" []
    (Pool.map_jobs ~jobs:4 (fun x -> x) [])

let test_map_order_small () =
  check
    Alcotest.(list int)
    "squares in order"
    [ 0; 1; 4; 9; 16; 25; 36 ]
    (on 3 (fun x -> x * x) [ 0; 1; 2; 3; 4; 5; 6 ])

let test_map_more_jobs_than_workers () =
  let xs = List.init 200 Fun.id in
  check
    Alcotest.(list int)
    "200 jobs over 2 domains"
    (List.map (fun x -> x + 1) xs)
    (on 2 (fun x -> x + 1) xs)

let test_map_raise_propagates_lowest_index () =
  (* Two jobs raise; the caller must see the lowest-index failure, and
     every job must still have been attempted (exactly-once). *)
  let ran = Array.make 10 0 in
  let m = Mutex.create () in
  (match
     on 4
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
    "jobs=1 matches four explicit domains"
    (Pool.map_jobs ~jobs:1 f xs)
    (on 4 f xs)

(* A call clamped to one domain runs on the caller and spawns none:
   [jobs:1] always, and [jobs:2] on a host that recommends two domains
   or fewer. *)
let test_single_worker_runs_on_caller () =
  let me = Domain.self () in
  let on_caller jobs =
    List.for_all (( = ) me)
      (Pool.map_jobs ~jobs (fun _ -> Domain.self ()) [ 1; 2; 3; 4 ])
  in
  check Alcotest.bool "jobs=1 on the caller" true (on_caller 1);
  if Domain.recommended_domain_count () <= 2 then
    check Alcotest.bool "clamped jobs=2 on the caller" true (on_caller 2)

(* The chunking (jobs per chunk scales with input size, capped at 16)
   must stay invisible: for input sizes straddling every interesting
   boundary of the heuristic — empty, single, one chunk, one chunk
   ± 1, cap × domains, and a campaign-sized run — the parallel result
   equals the sequential baseline. *)
let test_chunk_heuristic_boundaries () =
  let f x = (x * 31) lxor (x lsr 2) in
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i * 5) in
      let seq = Pool.map_jobs ~jobs:1 f xs in
      check
        Alcotest.(list int)
        (Printf.sprintf "n=%d: jobs=1 = jobs=4" n)
        seq (Pool.map_jobs ~jobs:4 f xs);
      check
        Alcotest.(list int)
        (Printf.sprintf "n=%d: jobs=1 = four explicit domains" n)
        seq (on 4 f xs))
    [ 0; 1; 2; 15; 16; 17; 63; 64; 65; 200; 1000 ]

let test_default_jobs_positive () =
  check Alcotest.bool "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* The domain bound: each job holds an in-flight count while it
   sleeps, so every domain that runs jobs is in flight at once. *)
let test_in_flight_bounded () =
  List.iter
    (fun n ->
      let now = Atomic.make 0 and peak = Atomic.make 0 in
      let rec raise_peak v =
        let p = Atomic.get peak in
        if v > p && not (Atomic.compare_and_set peak p v) then raise_peak v
      in
      ignore
        (on n
           (fun _ ->
             raise_peak (Atomic.fetch_and_add now 1 + 1);
             Unix.sleepf 0.0005;
             Atomic.decr now)
           (List.init 60 Fun.id));
      check Alcotest.bool
        (Printf.sprintf "%d domains: at most %d jobs in flight (saw %d)" n n
           (Atomic.get peak))
        true
        (Atomic.get peak >= 1 && Atomic.get peak <= n))
    [ 2; 3; 4; 5; 6 ]

(* The jobs sleep, so a domain spawned by mistake would claim some. *)
let test_one_domain_on_caller () =
  let me = Domain.self () in
  let job _ =
    Unix.sleepf 0.0002;
    Domain.self ()
  in
  let ran_on = on 1 job (List.init 40 Fun.id) in
  check Alcotest.bool "every job on the caller" true
    (List.for_all (( = ) me) ran_on)

(* --- properties ------------------------------------------------------ *)

let prop_map_preserves_order =
  QCheck.Test.make ~name:"Pool.map preserves input order" ~count:50
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (n, xs) ->
      let f x = (x * 2654435761) lxor 0x5A5A in
      Pool.map_jobs ~jobs:n f xs = List.map f xs && on n f xs = List.map f xs)

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
        [ Pool.map_jobs ~jobs:n; on n ])

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
        [ Pool.map_jobs ~jobs:n; on n ])

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
        Alcotest.test_case "jobs in flight never exceed the domains" `Quick
          test_in_flight_bounded;
        Alcotest.test_case "one domain: every job on the caller" `Quick
          test_one_domain_on_caller;
      ] );
  ]
