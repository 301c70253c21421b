open Iron_benchmark
module Report = Iron_report.Report
module Json = Iron_report.Json

let check = Alcotest.check
let seed = Plan.default_seed

(* The traced brand must not change a byte of any report. *)
let fingerprint_identical () =
  let cols = List.filteri (fun i _ -> i < 2) Iron_core.Workload.all in
  let fp b =
    Report.to_string
      (Report.of_fingerprint ~seed
         (Iron_core.Driver.fingerprint ~jobs:2 ~workloads:cols ~seed b))
  in
  let before = (Tracer.totals ()).Tracer.calls.(Tracer.vfs_mount) in
  let plain = fp Iron_ext3.Ext3.std in
  let traced = fp (Tracer.brand Iron_ext3.Ext3.std) in
  check Alcotest.string "2-column ext3 fingerprint" plain traced;
  check Alcotest.bool "the traced run went through the wrapper" true
    ((Tracer.totals ()).Tracer.calls.(Tracer.vfs_mount) > before)

let explore_identical () =
  let ex b =
    Report.to_string
      (Report.of_crash ~seed ~max_states:50
         (Iron_crash.Explore.explore ~jobs:2 ~seed ~max_states:50 b))
  in
  let before = (Tracer.totals ()).Tracer.calls.(Tracer.dev_write) in
  let plain = ex Iron_ext3.Ext3.ixt3 in
  let traced = ex (Tracer.brand Iron_ext3.Ext3.ixt3) in
  check Alcotest.string "50-state ixt3 explore" plain traced;
  check Alcotest.bool "device writes were traced" true
    ((Tracer.totals ()).Tracer.calls.(Tracer.dev_write) > before)

(* A write (0 s .. 10 s) issuing a device write (1 .. 3) and a failed
   device read (4 .. 4.5), then a report encoding (10 .. 12). *)
let self_time () =
  let open Tracer in
  let a = create_acc () in
  push_at a vfs_write ~t:0. ~w:0.;
  push_at a dev_write ~t:1. ~w:10.;
  pop_at a ~failed:false ~t:3. ~w:30.;
  push_at a dev_read ~t:4. ~w:40.;
  pop_at a ~failed:true ~t:4.5 ~w:45.;
  pop_at a ~failed:false ~t:10. ~w:100.;
  push_at a report_layer ~t:10. ~w:100.;
  pop_at a ~failed:false ~t:12. ~w:107.;
  let t = acc_totals a in
  let f = Alcotest.float 1e-12 in
  check f "write self = 10 - 2 - 0.5" 7.5 t.self_s.(vfs_write);
  check f "device write self" 2. t.self_s.(dev_write);
  check f "device read self" 0.5 t.self_s.(dev_read);
  check f "report self" 2. t.self_s.(report_layer);
  check f "self times add up to the wall time" 12.
    (Array.fold_left ( +. ) 0. t.self_s);
  check f "write words exclude its children's" 75. t.words.(vfs_write);
  check f "device write words" 20. t.words.(dev_write);
  check Alcotest.int "device read errors" 1 t.errors.(dev_read);
  check Alcotest.int "write errors" 0 t.errors.(vfs_write);
  check Alcotest.int "write calls" 1 t.calls.(vfs_write);
  Alcotest.check_raises "pop without push" (Failure "tracer: no open call")
    (fun () -> pop_at a ~failed:false ~t:13. ~w:0.)

let p90_needs_100_samples () =
  let xs n = List.init n float_of_int in
  check Alcotest.bool "99 samples: no p90" true
    ((Stats.latency (xs 99)).Stats.p90 = None);
  check Alcotest.bool "100 samples: p90" true
    ((Stats.latency (xs 100)).Stats.p90 <> None);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  check
    (Alcotest.list (Alcotest.float 1e-12))
    "quartiles as Python computes them" [ 2.75; 5.5; 8.25 ]
    (Stats.quantiles ~n:4 (List.init 10 (fun i -> float_of_int (i + 1))))

let bound metric higher bound =
  { Compare.metric; higher_is_better = higher; bound }

let verdicts () =
  let v b ~a ~b:bs =
    Compare.verdict_to_string (fst (Compare.verdict b ~a ~b:bs))
  in
  let a = List.init 10 (fun i -> 100. +. float_of_int (i mod 3)) in
  let s = Alcotest.string in
  check s "unchanged" "same" (v (bound "x" true 0.1) ~a ~b:a);
  check s "20% faster" "better"
    (v (bound "x" true 0.1) ~a ~b:(List.map (fun x -> x *. 1.2) a));
  check s "20% slower" "worse"
    (v (bound "x" true 0.1) ~a ~b:(List.map (fun x -> x *. 0.8) a));
  check s "lower is better" "better"
    (v (bound "x" false 0.1) ~a ~b:(List.map (fun x -> x *. 0.8) a));
  check s "one pair cannot show a gain" "same"
    (v (bound "x" true 0.1) ~a:[ 100. ] ~b:[ 105. ]);
  let wide = List.init 10 (fun i -> 50. +. (20. *. float_of_int i)) in
  check s "spread wider than the bound" "unresolved"
    (v (bound "x" true 0.1) ~a:wide ~b:wide)

let name_ok n =
  n <> ""
  && String.length n <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

let benchmark_json () =
  match
    Json.of_string
      (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  with
  | Ok j -> j
  | Error e -> Alcotest.fail e

let names_and_caps () =
  let names l = List.map fst l in
  let all = names Bench.end_to_end @ names Bench.per_layer in
  List.iter
    (fun n -> check Alcotest.bool ("name " ^ n) true (name_ok n))
    (all @ Plan.names);
  check Alcotest.bool "at most 16 end-to-end metrics" true
    (List.length Bench.end_to_end <= 16);
  check Alcotest.bool "at most 128 per-layer metrics" true
    (List.length Bench.per_layer <= 128);
  check Alcotest.int "names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  let doc = benchmark_json () in
  let entries key =
    match Json.mem_list key doc with
    | Ok l ->
        List.map
          (fun e ->
            match (Json.mem_str "name" e, Json.mem_str "unit" e) with
            | Ok n, Ok u -> (n, u)
            | Error e, _ | _, Error e -> Alcotest.fail e)
          l
    | Error e -> Alcotest.fail e
  in
  let pairs = Alcotest.(list (pair string string)) in
  check pairs "BENCHMARK.json end_to_end" Bench.end_to_end
    (entries "end_to_end");
  check pairs "BENCHMARK.json per_layer" Bench.per_layer (entries "per_layer");
  check
    Alcotest.(list string)
    "BENCHMARK.json workloads" Plan.names
    (List.map
       (fun e ->
         match Json.mem_str "name" e with
         | Ok n -> n
         | Error e -> Alcotest.fail e)
       (Result.get_ok (Json.mem_list "workloads" doc)))

let () =
  Alcotest.run "benchmark"
    [
      ( "tracer",
        [
          Alcotest.test_case "wrapped fingerprint is byte-identical" `Quick
            fingerprint_identical;
          Alcotest.test_case "wrapped explore is byte-identical" `Quick
            explore_identical;
          Alcotest.test_case "self time of nested calls" `Quick self_time;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "p90 needs 100 samples" `Quick
            p90_needs_100_samples;
          Alcotest.test_case "compare verdicts" `Quick verdicts;
          Alcotest.test_case "names, caps and BENCHMARK.json" `Quick
            names_and_caps;
        ] );
    ]
