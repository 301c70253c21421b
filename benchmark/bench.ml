module Json = Iron_report.Json
module Report = Iron_report.Report
module Sha1 = Iron_util.Sha1

let end_to_end =
  [
    ("units_per_s", "1/s");
    ("req_p50_ms", "ms");
    ("req_p90_ms", "ms");
    ("peak_rss_mb", "MB");
    ("setup_s", "s");
  ]

let layer_metrics l =
  let n = Tracer.layer_names.(l) in
  [
    (n ^ ".calls", "count");
    (n ^ ".self_ms", "ms");
    (n ^ ".words", "words");
    (n ^ ".errors", "count");
  ]

let per_layer =
  List.concat_map layer_metrics
    (List.filter
       (fun l -> Tracer.is_vfs l || Tracer.is_dev l)
       (List.init (Array.length Tracer.layer_names) Fun.id))
  @ [
      ("dev.read.per_vfs_call", "ratio");
      ("entry.self_ms", "ms");
      ("entry.words", "words");
      ("report.calls", "count");
      ("report.self_ms", "ms");
      ("report.words", "words");
      ("gc.minor_words", "words");
      ("gc.major_words", "words");
      ("gc.major_collections", "count");
      ("gc.top_heap_mb", "MB");
    ]
  @ List.map
      (fun n ->
        ( n,
          match n with
          | "runner.sim_ms" -> "sim_ms"
          | "fuzz.peak_log_bytes" -> "bytes"
          | _ -> "count" ))
      Plan.count_names
  @ [ ("fuzz.dedup_ratio", "ratio") ]

let min_samples = Stats.p90_min_samples
let hard_limit_s = 150.
let setup_round_s = 0.02
let setup_every_s = 1.

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  correct : bool;
  problems : string list;
  outputs_sha1 : string;
  golden_checked : int;
  golden_diffs : int;
  elapsed_s : float;
  pass_s : float;
  units_per_s : float;
  metrics : (string * float) list;
}

(* The time of one set-up: repeat [setup] until [setup_round_s] have
   passed and divide by the count, so that a set-up of a few tens of
   microseconds is timed well above the clock's resolution. *)
let setup_round setup =
  let t0 = Tracer.now () in
  let rec go n =
    ignore (setup ());
    let el = Tracer.now () -. t0 in
    if el >= setup_round_s then el /. float_of_int n else go (n + 1)
  in
  go 1

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Peak resident set size (VmHWM), falling back to the OCaml heap's
   peak where /proc is not available. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l -> (
              match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
              | Some kb -> Some (float_of_int kb /. 1024.)
              | None -> scan ())
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) -> top_heap_mb ()

(* What the first pass cost outside the traced layers: process CPU and
   allocation inside requests, accumulated request by request so the
   client's own bookkeeping between requests stays out. *)
type pass_cost = {
  mutable cpu : float;
  mutable minor : float;
  mutable major : float;
  mutable major_gcs : int;
}

let per_layer_metrics (tot : Tracer.totals) (pc : pass_cost) counts =
  let layers = List.init (Array.length Tracer.layer_names) Fun.id in
  let of_layer l =
    let n = Tracer.layer_names.(l) in
    let base =
      [
        (n ^ ".calls", float_of_int tot.calls.(l));
        (n ^ ".self_ms", tot.self_s.(l) *. 1000.);
        (n ^ ".words", tot.words.(l));
      ]
    in
    if l = Tracer.report_layer then base
    else base @ [ (n ^ ".errors", float_of_int tot.errors.(l)) ]
  in
  let sum f = List.fold_left (fun s l -> s +. f l) 0. layers in
  (* Device reads per file-system operation; mkfs, unmount and
     building the classifier ([vfs.admin]) are not operations a
     workload issues. *)
  let vfs_calls =
    sum (fun l ->
        if Tracer.is_vfs l && l <> Tracer.vfs_admin then
          float_of_int tot.calls.(l)
        else 0.)
  in
  let count n = Option.value ~default:0. (Hashtbl.find_opt counts n) in
  let raw = count "fuzz.states_raw" in
  List.concat_map of_layer layers
  @ [
      ( "dev.read.per_vfs_call",
        if vfs_calls > 0. then
          float_of_int tot.calls.(Tracer.dev_read) /. vfs_calls
        else 0. );
      ("entry.self_ms", (pc.cpu -. sum (fun l -> tot.self_s.(l))) *. 1000.);
      ("entry.words", pc.minor -. sum (fun l -> tot.words.(l)));
      ("gc.minor_words", pc.minor);
      ("gc.major_words", pc.major);
      ("gc.major_collections", float_of_int pc.major_gcs);
      ("gc.top_heap_mb", top_heap_mb ());
    ]
  @ List.map (fun n -> (n, count n)) Plan.count_names
  @ [
      ( "fuzz.dedup_ratio",
        if raw > 0. then count "fuzz.states_unique" /. raw else 0. );
    ]

let add_count counts = function
  | Plan.Sum (n, v) ->
      Hashtbl.replace counts n
        (v +. Option.value ~default:0. (Hashtbl.find_opt counts n))
  | Plan.Max (n, v) ->
      Hashtbl.replace counts n
        (Float.max v (Option.value ~default:0. (Hashtbl.find_opt counts n)))

let run setup ~seed ~seconds ~traced =
  let w : Plan.workload = setup () in
  let reqs = w.Plan.requests in
  let n = Array.length reqs in
  let digests = Array.make n "" in
  let outputs = Sha1.init () in
  let counts = Hashtbl.create 8 in
  let pc = { cpu = 0.; minor = 0.; major = 0.; major_gcs = 0 } in
  let layers = ref None in
  let samples = ref [] in
  let failed = ref 0 and units = ref 0 in
  let busy_s = ref 0. in
  let problems = ref [] in
  let golden_checked = ref 0 and golden_diffs = ref 0 in
  let problem p = problems := p :: !problems in
  let t_start = Tracer.now () in
  let pass_s = ref 0. in
  (* Set-up is timed between requests, once before the first and then
     about once a second: the host's speed drifts over seconds, and
     rounds taken all at once caught it in one state. *)
  let setup_times = ref [] and next_setup = ref 0. in
  let i = ref 0 in
  let finished () =
    let el = Tracer.now () -. t_start in
    el >= hard_limit_s || (!i >= n && el >= seconds && !i >= min_samples)
  in
  while not (finished ()) do
    if (not traced) && Tracer.now () -. t_start >= !next_setup then begin
      setup_times := setup_round setup :: !setup_times;
      next_setup := Tracer.now () -. t_start +. setup_every_s
    end;
    let k = !i mod n in
    let r = reqs.(k) in
    let first_pass = !i < n in
    let recorded = traced && !i < 8 in
    if recorded then Tracer.begin_request ~id:!i;
    let gc0 = Gc.quick_stat () and cpu0 = cpu_s () in
    let t0 = Tracer.now () in
    let res =
      match r.Plan.run () with
      | o -> Ok o
      | exception e -> Error (Printexc.to_string e)
    in
    let t1 = Tracer.now () in
    let cpu1 = cpu_s () and gc1 = Gc.quick_stat () in
    if recorded then Tracer.end_request ~label:r.Plan.label ~t0 ~t1;
    busy_s := !busy_s +. (t1 -. t0);
    samples := ((t1 -. t0) *. 1000.) :: !samples;
    let trouble =
      match res with
      | Error e -> Some (r.Plan.label ^ ": raised " ^ e)
      | Ok o ->
          units := !units + o.Plan.units;
          let d = Sha1.to_raw (Sha1.digest_string o.Plan.text) in
          if first_pass then begin
            digests.(k) <- d;
            Sha1.feed outputs (Bytes.unsafe_of_string o.Plan.text);
            List.iter (add_count counts) o.Plan.counts;
            pc.cpu <- pc.cpu +. (cpu1 -. cpu0);
            pc.minor <- pc.minor +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
            pc.major <- pc.major +. (gc1.Gc.major_words -. gc0.Gc.major_words);
            pc.major_gcs <-
              pc.major_gcs + gc1.Gc.major_collections - gc0.Gc.major_collections
          end;
          let golden =
            match r.Plan.golden with
            | Some g when first_pass -> (
                incr golden_checked;
                match Report.diff g o.Plan.artifact with
                | Ok [] -> None
                | Ok items ->
                    incr golden_diffs;
                    Some
                      (Printf.sprintf "%s: %d cells differ from golden"
                         r.Plan.label (List.length items))
                | Error e ->
                    incr golden_diffs;
                    Some (r.Plan.label ^ ": golden diff failed: " ^ e))
            | Some _ | None -> None
          in
          let repeat =
            if first_pass || String.equal digests.(k) d then None
            else Some (r.Plan.label ^ ": output differs from its first run")
          in
          List.find_map Fun.id [ o.Plan.problem; golden; repeat ]
    in
    Option.iter
      (fun p ->
        incr failed;
        problem p)
      trouble;
    incr i;
    if !i = n then begin
      pass_s := Tracer.now () -. t_start;
      if traced then layers := Some (Tracer.totals ())
    end
  done;
  let elapsed_s = Tracer.now () -. t_start in
  if !i < n then
    problem
      (Printf.sprintf "first pass incomplete: %d of %d requests in %.0f s" !i n
         hard_limit_s);
  let units_per_s = float_of_int !units /. Float.max !busy_s 1e-9 in
  let metrics =
    if traced then
      match !layers with
      | Some tot ->
          let m = per_layer_metrics tot pc counts in
          List.map (fun (name, _) -> (name, List.assoc name m)) per_layer
      | None -> List.map (fun (m, _) -> (m, 0.)) per_layer
    else
      (* Only a run cut short by the hard limit can lack samples; it is
         reported as incorrect, with the slowest sample as its p90. *)
      let lat = Stats.latency !samples in
      if lat.Stats.p90 = None then
        problem (Printf.sprintf "only %d latency samples" lat.Stats.samples);
      [
        ("units_per_s", units_per_s);
        ("req_p50_ms", lat.Stats.p50);
        ( "req_p90_ms",
          Option.value lat.Stats.p90
            ~default:(List.fold_left Float.max 0. !samples) );
        ("peak_rss_mb", peak_rss_mb ());
        ("setup_s", Stats.median !setup_times);
      ]
  in
  let problems = List.rev !problems in
  {
    workload = w.Plan.name;
    seed;
    traced;
    attempted = !i;
    failed = !failed;
    correct = problems = [];
    problems = List.filteri (fun j _ -> j < 10) problems;
    outputs_sha1 = Sha1.to_hex (Sha1.finalize outputs);
    golden_checked = !golden_checked;
    golden_diffs = !golden_diffs;
    elapsed_s;
    pass_s = !pass_s;
    units_per_s;
    metrics;
  }

let units_of name = List.assoc name (end_to_end @ per_layer)

let metrics_json (r : result) =
  Json.Assoc
    (List.map
       (fun (name, v) ->
         ( name,
           Json.Assoc
             [ ("value", Json.Float v); ("unit", Json.String (units_of name)) ]
         ))
       r.metrics)

let print ?trace_file (r : result) =
  Printf.printf "workload %s, seed %d, %s\n" r.workload r.seed
    (if r.traced then "traced" else "untraced");
  Option.iter
    (Printf.printf "chrome trace of the first 8 calls: %s\n")
    trace_file;
  Printf.printf
    "requests %d attempted, %d failed, in %.2f s (first pass %.2f s)\n"
    r.attempted r.failed r.elapsed_s r.pass_s;
  Printf.printf "golden %d checked, %d differ\n" r.golden_checked
    r.golden_diffs;
  Printf.printf "outputs_sha1 %s\n" r.outputs_sha1;
  Printf.printf "units_per_s %.6g 1/s\n" r.units_per_s;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) r.problems;
  List.iter
    (fun (name, v) -> Printf.printf "%-28s %.12g %s\n" name v (units_of name))
    r.metrics;
  print_endline
    (Json.to_string ~indent:false
       (Json.Assoc
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", metrics_json r);
          ]))

let to_json ~set (r : result) =
  Json.Assoc
    [
      ("set", Json.String set);
      ("workload", Json.String r.workload);
      ("seed", Json.Int r.seed);
      ("trace", Json.Int (if r.traced then 1 else 0));
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("outputs_sha1", Json.String r.outputs_sha1);
      ("golden_checked", Json.Int r.golden_checked);
      ("golden_diffs", Json.Int r.golden_diffs);
      ("elapsed_s", Json.Float r.elapsed_s);
      ("pass_s", Json.Float r.pass_s);
      ("units_per_s", Json.Float r.units_per_s);
      ( "metrics",
        Json.Assoc (List.map (fun (n, v) -> (n, Json.Float v)) r.metrics) );
    ]
